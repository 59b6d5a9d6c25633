(** Extended page tables: guest physical -> system physical, 4 levels,
    one per VM, owned by the hypervisor.  Also the enforcement point
    for device data isolation (§4.2). *)

type t

val create : unit -> t
val map : t -> gpa:int -> spa:int -> perms:Perm.t -> unit

(** Map [pages] contiguous pages from [gpa] onto contiguous frames from
    [spa], with a 2 MiB leaf for every aligned span the range wholly
    covers ({!Radix_table.map_range}); [spa] need not be 2 MiB
    aligned. *)
val map_range : t -> gpa:int -> spa:int -> pages:int -> perms:Perm.t -> unit

val unmap : t -> gpa:int -> bool

(** Hardware walk; raises {!Fault.Ept_violation}. *)
val translate : t -> gpa:int -> access:Perm.access -> int

(** As {!translate} but also returns the leaf permissions — software
    TLB fills need them to keep permission checks on at hit time. *)
val translate_leaf : t -> gpa:int -> access:Perm.access -> int * Perm.t

val translate_opt : t -> gpa:int -> access:Perm.access -> int option

(** Mutation counter for software-TLB invalidation
    ({!Radix_table.generation}). *)
val generation : t -> int

(** Hypervisor-internal lookup: sees the mapping regardless of the
    permissions that constrain the VM. *)
val lookup : t -> gpa:int -> (int * Perm.t) option

(** Permission surgery on an existing mapping; [Not_found] if absent. *)
val set_perms : t -> gpa:int -> perms:Perm.t -> unit

(** Reverse lookup (linear); isolation setup only. *)
val gpas_of_spn : t -> int -> int list

val iter : t -> (gpa:int -> spa:int -> perms:Perm.t -> unit) -> unit
