(** A physically-backed region shared between VMs (and optionally the
    hypervisor).

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
   [2 * page + kind] (kind 0 = read, 1 = write) holds the page's frame
   and, for a VM, the stamp it was resolved under: the VM's
   {!Memory.Ept.generation} and {!Memory.Tlb.epoch}.  A resolution goes
   through {!Vm.translate_gpa}, which leaves a current TLB entry
   behind; while the stamp still matches, that entry is still present
   and current, so the TLB would hit — and a cache hit is counted as
   exactly that.  Any EPT mutation (unmap, remap, permission
   stripping) or TLB flush changes the stamp, and the next access
   walks again, faulting as an uncached access would.  The
   hypervisor's view has no EPT in the way and frames never move, so
   its slots are resolved once. *)
type view = {
  region : t;
  owner : owner;
  frames : Bytes.t array; (* [no_frame] until resolved *)
  ept_gens : int array; (* -1: never resolved (VM views only) *)
  epochs : int array;
}

and owner = Guest of { vm : Vm.t; gpa : int (* region base in [vm] *) } | Hypervisor

let no_frame = Bytes.empty

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

let check_bounds t ~offset ~len =
  if offset < 0 || len < 0 || offset + len > t.pages * Memory.Addr.page_size then
    invalid_arg "Shared_page: access outside region"

let make_view region owner =
  let slots = 2 * region.pages in
  let stamps () = match owner with Hypervisor -> [||] | Guest _ -> Array.make slots (-1) in
  { region; owner; frames = Array.make slots no_frame; ept_gens = stamps (); epochs = stamps () }

(** A view for a VM that has the region mapped: every access performs
    the EPT-checked CPU access of that VM (crossing page boundaries
    splits into per-page accesses, as the CPU would), through the
    frame cache.  With the VM's TLB disabled (the uncached ablation)
    every access walks. *)
let view_of t vm =
  match List.assoc_opt vm.Vm.id t.mappings with
  | Some gpa -> make_view t (Guest { vm; gpa })
  | None -> invalid_arg "Shared_page.view_of: not mapped in this VM"

(** The hypervisor's own view bypasses EPTs: it addresses the frames
    directly (they are the hypervisor's memory, after all; the frames
    are physically contiguous, so linear addressing is exact). *)
let hypervisor_view t = make_view t Hypervisor

let page_of offset = offset lsr Memory.Addr.page_shift
let in_page offset = offset land (Memory.Addr.page_size - 1)
let spa_of v offset = Memory.Addr.of_pfn v.region.base_spn + offset

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
          v.frames.(slot) <- frame;
          v.ept_gens.(slot) <- Memory.Ept.generation vm.Vm.ept;
          v.epochs.(slot) <- Memory.Tlb.epoch vm.Vm.tlb;
          frame)

(* The frame of the page holding [offset] for [access], or [no_frame]
   when the caller must take the uncached path (a VM's TLB disabled,
   or an MMIO page). *)
let frame v ~access offset =
  let slot = (2 * page_of offset) + match access with Memory.Perm.Read -> 0 | _ -> 1 in
  match v.owner with
  | Hypervisor ->
      let f = v.frames.(slot) in
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
        v.ept_gens.(slot) = Memory.Ept.generation vm.Vm.ept
        && v.epochs.(slot) = Memory.Tlb.epoch tlb
      then begin
        let stats = Memory.Tlb.stats tlb in
        stats.Memory.Tlb.hits <- stats.Memory.Tlb.hits + 1;
        v.frames.(slot)
      end
      else resolve_guest v vm ~gpa ~slot ~access offset

(* Frame for a scalar of [width] bytes at [offset]; a page-straddling
   scalar takes the uncached path. *)
let scalar_frame v ~access ~offset ~width =
  check_bounds v.region ~offset ~len:width;
  if in_page offset + width <= Memory.Addr.page_size then frame v ~access offset
  else no_frame

(* One within-page chunk [off, off + chunk) of the region into or
   out of [buf] at [pos]. *)
let read_chunk v buf ~pos off chunk =
  let f = frame v ~access:Memory.Perm.Read off in
  if f != no_frame then Bytes.blit f (in_page off) buf pos chunk
  else
    match v.owner with
    | Guest { vm; gpa } -> Vm.read_gpa_into vm ~gpa:(gpa + off) ~dst:buf ~dst_off:pos ~len:chunk
    | Hypervisor ->
        Memory.Phys_mem.read_into v.region.phys ~spa:(spa_of v off) ~dst:buf ~dst_off:pos
          ~len:chunk

let write_chunk v buf ~pos off chunk =
  let f = frame v ~access:Memory.Perm.Write off in
  if f != no_frame then Bytes.blit buf pos f (in_page off) chunk
  else
    match v.owner with
    | Guest { vm; gpa } -> Vm.write_gpa_from vm ~gpa:(gpa + off) ~src:buf ~src_off:pos ~len:chunk
    | Hypervisor ->
        Memory.Phys_mem.write_from v.region.phys ~spa:(spa_of v off) ~src:buf ~src_off:pos
          ~len:chunk

(* Split a range into within-page chunks with plain recursion, handing
   each to [chunk], a top-level function: a ring slot is a single
   chunk, and no per-call closure is allocated. *)
let rec page_chunks chunk v buf ~pos off len =
  if len > 0 then begin
    let n = min len (Memory.Addr.page_size - in_page off) in
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

let read_u32 v ~offset =
  let f = scalar_frame v ~access:Memory.Perm.Read ~offset ~width:4 in
  if f != no_frame then Int32.to_int (Bytes.get_int32_le f (in_page offset)) land 0xffffffff
  else
    match v.owner with
    | Guest { vm; gpa } -> Vm.read_gpa_u32 vm ~gpa:(gpa + offset)
    | Hypervisor -> Memory.Phys_mem.read_u32 v.region.phys ~spa:(spa_of v offset)

let write_u32 v ~offset x =
  let f = scalar_frame v ~access:Memory.Perm.Write ~offset ~width:4 in
  if f != no_frame then Bytes.set_int32_le f (in_page offset) (Int32.of_int x)
  else
    match v.owner with
    | Guest { vm; gpa } -> Vm.write_gpa_u32 vm ~gpa:(gpa + offset) x
    | Hypervisor -> Memory.Phys_mem.write_u32 v.region.phys ~spa:(spa_of v offset) x

let read_u64 v ~offset =
  let f = scalar_frame v ~access:Memory.Perm.Read ~offset ~width:8 in
  if f != no_frame then Bytes.get_int64_le f (in_page offset)
  else
    match v.owner with
    | Guest { vm; gpa } -> Vm.read_gpa_u64 vm ~gpa:(gpa + offset)
    | Hypervisor -> Memory.Phys_mem.read_u64 v.region.phys ~spa:(spa_of v offset)

let write_u64 v ~offset x =
  let f = scalar_frame v ~access:Memory.Perm.Write ~offset ~width:8 in
  if f != no_frame then Bytes.set_int64_le f (in_page offset) x
  else
    match v.owner with
    | Guest { vm; gpa } -> Vm.write_gpa_u64 vm ~gpa:(gpa + offset) x
    | Hypervisor -> Memory.Phys_mem.write_u64 v.region.phys ~spa:(spa_of v offset) x
