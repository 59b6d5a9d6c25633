(** Generic multi-level radix page table — the common structure behind
    guest page tables and EPTs, with levels modelled explicitly so
    software walks, partial level creation and permission surgery all
    behave as on hardware.  A leaf may also sit at level [levels-2]
    (a 2 MiB leaf with 9-bit levels); only {!map_range} installs one,
    and finer-grained mutations inside it split it first. *)

type node
and leaf = { target_pfn : int; perms : Perm.t }

type t

(** [create ~widths] with one index-bit width per level, root first. *)
val create : widths:int list -> t

val levels : t -> int

(** Mapped frames; a large leaf counts every frame it covers. *)
val mapped_count : t -> int

val node_count : t -> int

(** Mutation counter: bumped by every {!map}, {!map_range} span,
    successful {!unmap} and {!set_perms}, but not by splitting a large
    leaf, which changes no translation.  Software TLBs record it at
    fill time; a mismatch on lookup means the cached translation may be
    stale and must be re-walked — the invalidation rule that keeps
    cached translations from outliving revoked mappings (§4.1). *)
val generation : t -> int

type walk_result =
  | Mapped of leaf
  | Missing_level of int (** intermediate table absent at this depth *)
  | Not_present (** levels exist; final entry empty *)

(** Inside a large leaf, reports [target_pfn] plus the frame's offset
    in the span. *)
val walk : t -> int -> walk_result
val lookup : t -> int -> leaf option

(** Create intermediate tables down to (excluding) the leaf level —
    what the CVD frontend does before forwarding an mmap (§5.2). *)
val ensure_intermediate : t -> int -> unit

val intermediate_present : t -> int -> bool
val map : t -> vfn:int -> pfn:int -> perms:Perm.t -> unit

(** Map [vfn + k] to [pfn + k] for [k < count], with a large leaf for
    every aligned span the range wholly covers; [pfn] need not be
    aligned. *)
val map_range : t -> vfn:int -> pfn:int -> count:int -> perms:Perm.t -> unit

val unmap : t -> int -> bool

(** Replace an existing mapping's permissions; [Not_found] if absent. *)
val set_perms : t -> vfn:int -> perms:Perm.t -> unit

(** Every mapped frame in ascending order; large leaves are expanded
    page by page. *)
val iter : t -> (int -> leaf -> unit) -> unit
