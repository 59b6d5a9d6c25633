(** System physical memory: range-backed 4 KiB RAM frames, stored
    only once touched, plus MMIO pages routed to device register
    handlers. *)

type mmio_handler = {
  mmio_read : offset:int -> len:int -> bytes;
  mmio_write : offset:int -> bytes -> unit;
}

type t

val create : unit -> t

(** Allocate [n] fresh contiguous RAM frames; returns the base spn.
    Constant time: each frame reads as zeros until first touched. *)
val alloc_frames : t -> int -> int

val alloc_frame : t -> int

(** Install a device register page; returns its spn. *)
val alloc_mmio : t -> mmio_handler -> int

val is_mmio : t -> int -> bool

(** The 4 KiB backing bytes of RAM frame [spn] (materialised if
    untouched), or [None] for an MMIO page.  Frames never move, so the
    result may be cached.  Raises {!Fault.Bus_error} (reporting
    [access]) on frames never allocated. *)
val ram_frame : t -> spn:int -> access:Perm.access -> Bytes.t option

(** Stands for "no frame to cache": never a frame's bytes. *)
val no_frame : Bytes.t

(** [cached_frame t spn] is RAM frame [spn]'s backing bytes
    (materialised if untouched, as any access would), or {!no_frame}
    for an MMIO page or a frame never allocated.  It never raises: the
    accessors below fault on such a frame where they always did. *)
val cached_frame : t -> int -> Bytes.t

(** Byte access at system physical addresses; may cross frames.
    Raises {!Fault.Bus_error} on frames never allocated. *)
val read : t -> spa:int -> len:int -> bytes

val write : t -> spa:int -> bytes -> unit

(** Zero-copy blits into/from a caller-supplied buffer — the
    data-plane fast path; no intermediate allocation.  Scalar
    accessors below likewise address the backing frame directly. *)
val read_into : t -> spa:int -> dst:bytes -> dst_off:int -> len:int -> unit

val write_from : t -> spa:int -> src:bytes -> src_off:int -> len:int -> unit
val read_u8 : t -> spa:int -> int
val write_u8 : t -> spa:int -> int -> unit
val read_u32 : t -> spa:int -> int
val write_u32 : t -> spa:int -> int -> unit
val read_u64 : t -> spa:int -> int64
val write_u64 : t -> spa:int -> int64 -> unit

(** Scrub a frame to zero (protected-region recycling, §5.3). *)
val zero_frame : t -> int -> unit

(** Frames allocated so far (RAM and MMIO, touched or not). *)
val frame_count : t -> int
