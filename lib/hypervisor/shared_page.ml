(** A physically-backed region shared between VMs (and optionally a
    device and the hypervisor).

    The CVD frontend/backend communicate through such regions (§5.1):
    the frontend serialises file-operation arguments into one, rings a
    doorbell, and the backend deserialises on the other side.  Each
    side accesses the region through its own EPT mapping, so
    permissions apply — a shared page inside a protected region
    genuinely becomes unreadable to the driver VM.

    A region is one or more physically contiguous frames mapped at a
    contiguous guest-physical range in every VM that maps it; the
    descriptor-ring transport uses a control page followed by slot
    pages. *)

type t = {
  phys : Memory.Phys_mem.t;
  base_spn : int; (* first of [pages] contiguous frames *)
  pages : int;
  mutable mappings : (int * int) list; (* vm id, base gpa *)
}

(* A view is plain data; the accessors below dispatch on its owner.

   The ring transport touches the same few words of the same pages on
   every operation, so a view resolves each page to its backing frame
   once per mapping change instead of once per word.  Slot
   [2 * page + kind] (kind 0 = read, 1 = write) holds the page's frame.
   One stamp covers every slot: the frames were all resolved under it,
   and when it goes stale the next resolution empties them all.

   - A VM's stamp is its {!Memory.Ept.generation} and
     {!Memory.Tlb.epoch}.  A resolution goes through the VM's TLB,
     which leaves a current entry behind; while the stamp still
     matches, that entry is still present and current, so the TLB
     would hit — and a cache hit is counted as exactly that.  Any EPT
     mutation (unmap, remap, permission stripping) or TLB flush changes
     the stamp, and the next access walks again, faulting as an
     uncached access would.  Both counters only grow, so a stamp never
     matches again once stale.
   - A device's stamp is its IOMMU domain's {!Memory.Iommu.generation}.
     A resolution goes through the permission-checked
     {!Memory.Iommu.translate}; any map, unmap or region switch in the
     domain changes the stamp, so a revoked page faults exactly as an
     uncached DMA would.  There is no device TLB, so nothing is
     counted.
   - The hypervisor's view has no translation in the way and frames
     never move, so its slots are resolved once. *)
type view = {
  region : t;
  owner : owner;
  frames : Bytes.t array; (* [no_frame] until resolved under the stamp *)
  mutable gen : int; (* EPT or IOMMU generation; -1: nothing resolved *)
  mutable epoch : int; (* TLB epoch (VM views only) *)
}

and owner =
  | Guest of { vm : Vm.t; gpa : int (* region base in [vm] *) }
  | Device of { iommu : Memory.Iommu.t; dma : int (* region base in [iommu] *) }
  | Hypervisor

let no_frame = Memory.Phys_mem.no_frame

let allocate ?(pages = 1) phys =
  if pages < 1 then invalid_arg "Shared_page.allocate: pages < 1";
  { phys; base_spn = Memory.Phys_mem.alloc_frames phys pages; pages; mappings = [] }

let spn t = t.base_spn
let pages t = t.pages
let size t = t.pages * Memory.Addr.page_size

(** Map the region into [vm] at a fresh contiguous guest-physical
    range; returns its base address. *)
let map_into t vm ~perms =
  let gpa = Memory.Allocator.reserve_unused_range vm.Vm.gpa_alloc t.pages in
  Memory.Ept.map_range vm.Vm.ept ~gpa ~spa:(Memory.Addr.of_pfn t.base_spn) ~pages:t.pages
    ~perms;
  t.mappings <- (vm.Vm.id, gpa) :: t.mappings;
  gpa

(** Map the region's pages into a device's IOMMU domain, contiguously
    from the page-aligned DMA address [dma]. *)
let map_dma t iommu ~dma ~perms =
  for i = 0 to t.pages - 1 do
    Memory.Iommu.map iommu
      ~dma:(dma + (i * Memory.Addr.page_size))
      ~spa:(Memory.Addr.of_pfn (t.base_spn + i))
      ~perms ~region:None
  done

let check_bounds t ~offset ~len =
  if offset < 0 || len < 0 || offset + len > t.pages * Memory.Addr.page_size then
    invalid_arg "Shared_page: access outside region"

let make_view region owner =
  { region; owner; frames = Array.make (2 * region.pages) no_frame; gen = -1; epoch = -1 }

(** A view for a VM that has the region mapped: every access performs
    the EPT-checked CPU access of that VM (crossing page boundaries
    splits into per-page accesses, as the CPU would), through the
    frame cache.  With the VM's TLB disabled (the uncached ablation)
    every access walks. *)
let view_of t vm =
  match List.assoc_opt vm.Vm.id t.mappings with
  | Some gpa -> make_view t (Guest { vm; gpa })
  | None -> invalid_arg "Shared_page.view_of: not mapped in this VM"

(** A device's DMA view: offset [o] is DMA address [dma + o] in
    [iommu], translated with the domain's permission checks. *)
let device_view t iommu ~dma = make_view t (Device { iommu; dma })

(** The hypervisor's own view bypasses EPTs: it addresses the frames
    directly (they are the hypervisor's memory, after all; the frames
    are physically contiguous, so linear addressing is exact). *)
let hypervisor_view t = make_view t Hypervisor

let page_of offset = offset lsr Memory.Addr.page_shift
let in_page offset = offset land (Memory.Addr.page_size - 1)
let spa_of v offset = Memory.Addr.of_pfn v.region.base_spn + offset

(* Keeps [frame] in [slot] under the stamp [gen], [epoch]: a stamp
   that moved since the last resolution empties every other slot
   first. *)
let store v ~slot ~gen ~epoch frame =
  if gen <> v.gen || epoch <> v.epoch then begin
    Array.fill v.frames 0 (Array.length v.frames) no_frame;
    v.gen <- gen;
    v.epoch <- epoch
  end;
  v.frames.(slot) <- frame;
  frame

let resolve_guest v vm ~gpa ~slot ~access offset =
  match Memory.Ept.lookup vm.Vm.ept ~gpa:(gpa + offset) with
  | Some (spa, _) when Memory.Phys_mem.is_mmio v.region.phys (Memory.Addr.pfn spa) ->
      (* never cached: the uncached path routes it to the device *)
      no_frame
  | Some _ | None -> (
      (* faults exactly as an uncached access on a revoked page *)
      let spa = Vm.translate_gpa vm ~gpa:(gpa + offset) ~access in
      match Memory.Phys_mem.ram_frame v.region.phys ~spn:(Memory.Addr.pfn spa) ~access with
      | None -> no_frame
      | Some frame ->
          (* stamped after the translation, which may have flushed the
             TLB *)
          store v ~slot ~gen:(Memory.Ept.generation vm.Vm.ept)
            ~epoch:(Memory.Tlb.epoch vm.Vm.tlb) frame)

let resolve_device v iommu ~dma ~slot ~access offset =
  (* faults exactly as an uncached DMA to an unmapped or
     under-privileged page *)
  let spa = Memory.Iommu.translate iommu ~dma:(dma + offset) ~access in
  match Memory.Phys_mem.ram_frame v.region.phys ~spn:(Memory.Addr.pfn spa) ~access with
  | None -> no_frame (* MMIO: never cached *)
  | Some frame -> store v ~slot ~gen:(Memory.Iommu.generation iommu) ~epoch:0 frame

(* The frame of the page holding [offset] for [access], or [no_frame]
   when the caller must take the uncached path (a VM's TLB disabled,
   or an MMIO page). *)
let frame v ~access offset =
  let slot = (2 * page_of offset) + match access with Memory.Perm.Read -> 0 | _ -> 1 in
  let f = v.frames.(slot) in
  match v.owner with
  | Hypervisor ->
      if f != no_frame then f
      else (
        match
          Memory.Phys_mem.ram_frame v.region.phys
            ~spn:(v.region.base_spn + page_of offset)
            ~access
        with
        | Some f ->
            v.frames.(slot) <- f;
            f
        | None -> no_frame)
  | Guest { vm; gpa } ->
      let tlb = vm.Vm.tlb in
      if not (Memory.Tlb.enabled tlb) then no_frame
      else if
        f != no_frame && v.gen = Memory.Ept.generation vm.Vm.ept && v.epoch = Memory.Tlb.epoch tlb
      then begin
        let stats = Memory.Tlb.stats tlb in
        stats.Memory.Tlb.hits <- stats.Memory.Tlb.hits + 1;
        f
      end
      else resolve_guest v vm ~gpa ~slot ~access offset
  | Device { iommu; dma } ->
      if f != no_frame && v.gen = Memory.Iommu.generation iommu then f
      else resolve_device v iommu ~dma ~slot ~access offset

(* Frame for a scalar of [width] bytes at [offset]; a page-straddling
   scalar takes the uncached path. *)
let scalar_frame v ~access ~offset ~width =
  check_bounds v.region ~offset ~len:width;
  if in_page offset + width <= Memory.Addr.page_size then frame v ~access offset
  else no_frame

(* The system-physical address a device's uncached DMA reaches. *)
let dma_spa iommu ~dma ~access off = Memory.Iommu.translate iommu ~dma:(dma + off) ~access

(* One within-page chunk [off, off + chunk) of the region into or
   out of [buf] at [pos]. *)
let read_chunk v buf ~pos off chunk =
  let f = frame v ~access:Memory.Perm.Read off in
  if f != no_frame then Bytes.blit f (in_page off) buf pos chunk
  else
    match v.owner with
    | Guest { vm; gpa } -> Vm.read_gpa_into vm ~gpa:(gpa + off) ~dst:buf ~dst_off:pos ~len:chunk
    | Device { iommu; dma } ->
        Memory.Phys_mem.read_into v.region.phys
          ~spa:(dma_spa iommu ~dma ~access:Memory.Perm.Read off)
          ~dst:buf ~dst_off:pos ~len:chunk
    | Hypervisor ->
        Memory.Phys_mem.read_into v.region.phys ~spa:(spa_of v off) ~dst:buf ~dst_off:pos
          ~len:chunk

let write_chunk v buf ~pos off chunk =
  let f = frame v ~access:Memory.Perm.Write off in
  if f != no_frame then Bytes.blit buf pos f (in_page off) chunk
  else
    match v.owner with
    | Guest { vm; gpa } -> Vm.write_gpa_from vm ~gpa:(gpa + off) ~src:buf ~src_off:pos ~len:chunk
    | Device { iommu; dma } ->
        Memory.Phys_mem.write_from v.region.phys
          ~spa:(dma_spa iommu ~dma ~access:Memory.Perm.Write off)
          ~src:buf ~src_off:pos ~len:chunk
    | Hypervisor ->
        Memory.Phys_mem.write_from v.region.phys ~spa:(spa_of v off) ~src:buf ~src_off:pos
          ~len:chunk

(* Split a range into within-page chunks with plain recursion, handing
   each to [chunk], a top-level function: a ring slot is a single
   chunk, and no per-call closure is allocated. *)
let rec page_chunks chunk v buf ~pos off len =
  if len > 0 then begin
    let n = Int.min len (Memory.Addr.page_size - in_page off) in
    chunk v buf ~pos off n;
    page_chunks chunk v buf ~pos:(pos + n) (off + n) (len - n)
  end

let read_into v ~offset ~len ~dst ~dst_off =
  check_bounds v.region ~offset ~len;
  if dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Shared_page.read_into: destination too small";
  page_chunks read_chunk v dst ~pos:dst_off offset len

let read v ~offset ~len =
  let out = Bytes.create len in
  read_into v ~offset ~len ~dst:out ~dst_off:0;
  out

let write v ~offset data =
  let len = Bytes.length data in
  check_bounds v.region ~offset ~len;
  page_chunks write_chunk v data ~pos:0 offset len

(* A device scalar off the cached path (page-straddling, or MMIO) is
   a DMA of its bytes, page by page. *)
let device_write_scalar v ~offset ~width set x =
  let b = Bytes.create width in
  set b 0 x;
  write v ~offset b

let get_u32 f off = Int32.to_int (Bytes.get_int32_le f off) land 0xffffffff

let read_u32_uncached v ~offset =
  match v.owner with
  | Guest { vm; gpa } -> Vm.read_gpa_u32 vm ~gpa:(gpa + offset)
  | Device _ -> get_u32 (read v ~offset ~len:4) 0
  | Hypervisor -> Memory.Phys_mem.read_u32 v.region.phys ~spa:(spa_of v offset)

let read_u32 v ~offset =
  let f = scalar_frame v ~access:Memory.Perm.Read ~offset ~width:4 in
  if f != no_frame then get_u32 f (in_page offset) else read_u32_uncached v ~offset

let write_u32 v ~offset x =
  let f = scalar_frame v ~access:Memory.Perm.Write ~offset ~width:4 in
  if f != no_frame then Bytes.set_int32_le f (in_page offset) (Int32.of_int x)
  else
    match v.owner with
    | Guest { vm; gpa } -> Vm.write_gpa_u32 vm ~gpa:(gpa + offset) x
    | Device _ ->
        device_write_scalar v ~offset ~width:4
          (fun b o x -> Bytes.set_int32_le b o (Int32.of_int x))
          x
    | Hypervisor -> Memory.Phys_mem.write_u32 v.region.phys ~spa:(spa_of v offset) x

let read_u64 v ~offset =
  let f = scalar_frame v ~access:Memory.Perm.Read ~offset ~width:8 in
  if f != no_frame then Bytes.get_int64_le f (in_page offset)
  else
    match v.owner with
    | Guest { vm; gpa } -> Vm.read_gpa_u64 vm ~gpa:(gpa + offset)
    | Device _ -> Bytes.get_int64_le (read v ~offset ~len:8) 0
    | Hypervisor -> Memory.Phys_mem.read_u64 v.region.phys ~spa:(spa_of v offset)

let write_u64 v ~offset x =
  let f = scalar_frame v ~access:Memory.Perm.Write ~offset ~width:8 in
  if f != no_frame then Bytes.set_int64_le f (in_page offset) x
  else
    match v.owner with
    | Guest { vm; gpa } -> Vm.write_gpa_u64 vm ~gpa:(gpa + offset) x
    | Device _ -> device_write_scalar v ~offset ~width:8 Bytes.set_int64_le x
    | Hypervisor -> Memory.Phys_mem.write_u64 v.region.phys ~spa:(spa_of v offset) x

(* One word of a [find_u32] scan.  [page] is the page whose frame [f]
   this scan resolved last ([f == no_frame]: none).  The scan runs no
   other code, so that frame's stamp cannot move before the next word
   and a word in the same page reads it directly, counting the TLB hit
   that [frame] would have counted.  Any other word goes through
   [read_u32]'s own path. *)
let rec find_from v ~offset ~stride ~count ~value ~start ~n k page f =
  if k >= n then -1
  else
    let j = start + k in
    let i = if j >= count then j - count else j in
    let off = offset + (i * stride) in
    if f != no_frame && page_of off = page && in_page off + 4 <= Memory.Addr.page_size then begin
      (match v.owner with
      | Guest { vm; _ } ->
          let stats = Memory.Tlb.stats vm.Vm.tlb in
          stats.Memory.Tlb.hits <- stats.Memory.Tlb.hits + 1
      | Device _ | Hypervisor -> ());
      if get_u32 f (in_page off) = value then i
      else find_from v ~offset ~stride ~count ~value ~start ~n (k + 1) page f
    end
    else
      let f = scalar_frame v ~access:Memory.Perm.Read ~offset:off ~width:4 in
      let x = if f != no_frame then get_u32 f (in_page off) else read_u32_uncached v ~offset:off in
      if x = value then i
      else find_from v ~offset ~stride ~count ~value ~start ~n (k + 1) (page_of off) f

let find_u32 v ~offset ~stride ~count ~start ~n ~value =
  if count < 1 || start < 0 || n < 0 || n > count || (n > 0 && start >= count) then
    invalid_arg "Shared_page.find_u32: bad range";
  find_from v ~offset ~stride ~count ~value ~start ~n 0 (-1) no_frame
