(** A physically-backed region shared between VMs (the CVD transport
    medium, §5.1): one or more contiguous frames, mapped contiguously
    into each VM.  Each VM accesses it through its own EPT mapping, so
    permissions apply for real. *)

type t

(** One party's access path to a region: a VM's (EPT-checked) or the
    hypervisor's.  A view caches each page's backing frame; for a VM
    the cache is stamped with the EPT generation and TLB epoch, so a
    cached access counts one TLB hit and any remap, permission change
    or TLB flush sends the next access through the full walk. *)
type view

(** [allocate ?pages phys] backs the region with [pages] (default 1)
    contiguous frames. *)
val allocate : ?pages:int -> Memory.Phys_mem.t -> t

(** First backing frame. *)
val spn : t -> int

val pages : t -> int
val size : t -> int

(** Map into [vm] at a fresh contiguous guest-physical range
    (base returned). *)
val map_into : t -> Vm.t -> perms:Memory.Perm.t -> int

(** EPT-checked access for a VM that has the region mapped. *)
val view_of : t -> Vm.t -> view

(** The hypervisor's own view bypasses EPTs. *)
val hypervisor_view : t -> view

(** Accessors; [offset] is relative to the region's start, and an
    access outside the region raises [Invalid_argument].  A VM view
    raises {!Memory.Fault.Ept_violation} exactly where the VM's own
    CPU access would. *)

val read : view -> offset:int -> len:int -> bytes

(** [read] into [dst] at [dst_off] instead of a fresh buffer;
    [Invalid_argument] when [dst] cannot hold [len] bytes there. *)
val read_into : view -> offset:int -> len:int -> dst:bytes -> dst_off:int -> unit

val write : view -> offset:int -> bytes -> unit
val read_u32 : view -> offset:int -> int
val write_u32 : view -> offset:int -> int -> unit
val read_u64 : view -> offset:int -> int64
val write_u64 : view -> offset:int -> int64 -> unit
