(** A physically-backed region shared between VMs (the CVD transport
    medium, §5.1) and devices (the netmap ring): one or more contiguous
    frames, mapped contiguously into each VM and IOMMU domain.  Each VM
    accesses it through its own EPT mapping and each device through its
    IOMMU domain, so permissions apply for real. *)

type t

(** One party's access path to a region: a VM's (EPT-checked), a
    device's (IOMMU-checked) or the hypervisor's.  A view caches each
    page's backing frame.  For a VM the cache is stamped with the EPT
    generation and TLB epoch, so a cached access counts one TLB hit and
    any remap, permission change or TLB flush sends the next access
    through the full walk.  For a device it is stamped with the IOMMU
    domain's {!Memory.Iommu.generation}, so any map or unmap in the
    domain sends the next access through the permission-checked
    translation. *)
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

(** [map_dma t iommu ~dma ~perms] maps the region's pages into
    [iommu] contiguously from the page-aligned DMA address [dma]. *)
val map_dma : t -> Memory.Iommu.t -> dma:int -> perms:Memory.Perm.t -> unit

(** EPT-checked access for a VM that has the region mapped. *)
val view_of : t -> Vm.t -> view

(** IOMMU-checked DMA access: offset [o] is DMA address [dma + o] in
    [iommu].  An access raises {!Memory.Fault.Iommu_fault} exactly
    where the uncached DMA would. *)
val device_view : t -> Memory.Iommu.t -> dma:int -> view

(** The hypervisor's own view bypasses EPTs. *)
val hypervisor_view : t -> view

(** Accessors; [offset] is relative to the region's start, and an
    access outside the region raises [Invalid_argument].  A VM view
    raises {!Memory.Fault.Ept_violation} exactly where the VM's own
    CPU access would, a device view {!Memory.Fault.Iommu_fault}
    where the device's DMA would. *)

val read : view -> offset:int -> len:int -> bytes

(** [read] into [dst] at [dst_off] instead of a fresh buffer;
    [Invalid_argument] when [dst] cannot hold [len] bytes there. *)
val read_into : view -> offset:int -> len:int -> dst:bytes -> dst_off:int -> unit

val write : view -> offset:int -> bytes -> unit
val read_u32 : view -> offset:int -> int
val write_u32 : view -> offset:int -> int -> unit
val read_u64 : view -> offset:int -> int64
val write_u64 : view -> offset:int -> int64 -> unit

(** [find_u32 v ~offset ~stride ~count ~start ~n ~value] scans the u32
    words at [offset + i * stride] for the [n] indices
    [i = (start + k) mod count], [k = 0 .. n - 1] (a cursor that may
    wrap once), and returns the first [i] whose word equals [value],
    or [-1].  Each page is resolved once per call, yet every word
    examined counts exactly as one {!read_u32} would (the same TLB
    hits, misses and walks, and the same faults), and the scan
    allocates nothing.  [Invalid_argument] unless [0 <= n <= count]
    and, when [n > 0], [0 <= start < count]. *)
val find_u32 :
  view -> offset:int -> stride:int -> count:int -> start:int -> n:int -> value:int -> int
