(** IOMMU: device DMA address -> system physical, one domain per
    assigned device, with per-region tagging for device data isolation
    (§4.2). *)

type t

val create : name:string -> t
val name : t -> string
val map : t -> dma:int -> spa:int -> perms:Perm.t -> region:int option -> unit
val unmap : t -> dma:int -> unit

(** Bumped by {!map}, {!unmap} and {!unmap_region}, the only writers
    of the domain's mappings: a translation made while the generation
    read [g] is still the translation while it reads [g].  Frame
    caches over DMA (the device views of shared regions) stamp with
    it. *)
val generation : t -> int

(** Raises {!Fault.Iommu_fault} on unmapped or under-privileged DMA. *)
val translate : t -> dma:int -> access:Perm.access -> int

val translate_opt : t -> dma:int -> access:Perm.access -> int option
val pfns_of_region : t -> int -> int list

(** Drop every mapping tagged [region]; returns how many (the
    expensive half of a region switch). *)
val unmap_region : t -> int -> int

val mapping_count : t -> int

type mapping = { spn : int; perms : Perm.t; region : int option }

val iter : t -> (dma_pfn:int -> mapping -> unit) -> unit
