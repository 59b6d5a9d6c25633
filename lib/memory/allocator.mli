(** Page-granular address-space allocator: guest-physical RAM inside a
    VM, or virtual ranges in a process.  [reserve_unused*] answers the
    hypervisor's "find a page the guest OS does not use" (§5.2) and
    keeps it out of normal allocation. *)

type t

val create : base:int -> size:int -> t
val total_pages : t -> int

(** May raise [Out_of_memory]. *)
val alloc_page : t -> int

(** [n] contiguous pages: the run of length [n] most recently returned
    by {!free_range}, else fresh pages from the bump region (runs are
    neither split nor coalesced). *)
val alloc_range : t -> int -> int

(** Return a page to {!alloc_page}. *)
val free_page : t -> int -> unit

(** [free_range t addr n] returns a run of [n] pages from
    {!alloc_range} for reuse by an [alloc_range] of the same length. *)
val free_range : t -> int -> int -> unit

(** Claim the highest page the allocator has never handed out and
    never will while reserved.  The search starts at a watermark above
    which every page is reserved, so it does not rescan earlier
    reservations. *)
val reserve_unused : t -> int

(** Contiguous variant (device BAR apertures): the highest run of [n]
    unused pages. *)
val reserve_unused_range : t -> int -> int

(** Release a reservation; raises the watermark if the page lies above
    it. *)
val unreserve : t -> int -> unit
val is_reserved : t -> int -> bool
