(** A virtual machine, as the hypervisor sees it.

    A VM owns an EPT (maintained by the hypervisor), a guest-physical
    address-space allocator (what the guest kernel believes is its RAM)
    and, for a driver VM, the set of devices assigned to it.  The
    guest kernel itself lives in [lib/oskit] and is attached by the
    machine assembly code; the hypervisor never depends on it.

    Every CPU memory access funnels through the VM's software TLB
    before walking the radix tables; a TLB entry carries its page's
    frame, so a hit reaches the bytes with no further lookup.  A TLB hit still checks the cached leaf
    permissions and the source tables' generation counters, so a
    revoked or re-permissioned mapping can never be reached through a
    stale entry — §4.1 fault isolation holds with the cache on. *)

type kind = Guest | Driver

type t = {
  id : int;
  name : string;
  kind : kind;
  phys : Memory.Phys_mem.t;
  ept : Memory.Ept.t;
  tlb : Memory.Tlb.t;
  gpa_alloc : Memory.Allocator.t;
  mem_bytes : int;
  mutable grant_frame : int option; (* spn of the registered grant table *)
  mutable alive : bool; (* cleared when the VM crashes or is killed *)
}

let id t = t.id
let name t = t.name
let kind t = t.kind
let ept t = t.ept
let phys t = t.phys
let tlb t = t.tlb
let alive t = t.alive
let flush_tlb t = Memory.Tlb.flush t.tlb

(* Installs the entry for a walk's result, with the page's frame, and
   returns it; with the TLB disabled it is returned without being
   kept. *)
let fill t ~key ~spa ~pt_perms ~ept_perms ~pt_gen ~ept_gen =
  let spn = Memory.Addr.pfn spa in
  let e =
    {
      Memory.Tlb.key;
      spn;
      frame = Memory.Phys_mem.cached_frame t.phys spn;
      pt_perms;
      ept_perms;
      pt_gen;
      ept_gen;
    }
  in
  Memory.Tlb.install t.tlb e;
  e

(* The TLB entry translating [gpa] for [access]: a hit, or the EPT
   walk's result, installed.  gpa-space entries live in
   {!Memory.Tlb.gpa_space} with a pinned pt generation of 0. *)
let gpa_entry t ~gpa ~access =
  let key = Memory.Tlb.key ~space:Memory.Tlb.gpa_space ~vfn:(Memory.Addr.pfn gpa) in
  let ept_gen = Memory.Ept.generation t.ept in
  let e = Memory.Tlb.lookup t.tlb ~key ~access ~pt_gen:0 ~ept_gen in
  if e != Memory.Tlb.absent then e
  else begin
    let spa, ept_perms = Memory.Ept.translate_leaf t.ept ~gpa ~access in
    Memory.Tlb.count_walks t.tlb 1;
    fill t ~key ~spa ~pt_perms:Memory.Perm.rwx ~ept_perms ~pt_gen:0 ~ept_gen
  end

(* The same for a combined guest-PT + EPT translation, keyed by the
   process's address-space id. *)
let gva_entry t ~pt ~gva ~access =
  let key = Memory.Tlb.key ~space:(Memory.Guest_pt.id pt) ~vfn:(Memory.Addr.pfn gva) in
  let pt_gen = Memory.Guest_pt.generation pt in
  let ept_gen = Memory.Ept.generation t.ept in
  let e = Memory.Tlb.lookup t.tlb ~key ~access ~pt_gen ~ept_gen in
  if e != Memory.Tlb.absent then e
  else begin
    let gpa, pt_perms = Memory.Guest_pt.translate_leaf pt ~gva ~access in
    let spa, ept_perms = Memory.Ept.translate_leaf t.ept ~gpa ~access in
    Memory.Tlb.count_walks t.tlb 2;
    fill t ~key ~spa ~pt_perms ~ept_perms ~pt_gen ~ept_gen
  end

let[@inline] spa_of (e : Memory.Tlb.entry) addr =
  Memory.Addr.of_pfn e.spn lor Memory.Addr.offset addr

(** EPT translation with TLB caching. *)
let translate_gpa t ~gpa ~access = spa_of (gpa_entry t ~gpa ~access) gpa

(** Combined guest-PT + EPT translation with TLB caching. *)
let translate_gva t ~pt ~gva ~access = spa_of (gva_entry t ~pt ~gva ~access) gva

(* The per-page steps of a range copy, as top-level functions: an
   entry lookup for each address kind and a blit each way, straight
   into the entry's frame or, for an MMIO or unbacked page, through
   physical memory. *)
let gpa_page t () addr access = gpa_entry t ~gpa:addr ~access
let gva_page t pt addr access = gva_entry t ~pt ~gva:addr ~access

let no_frame = Memory.Phys_mem.no_frame

let read_page phys (e : Memory.Tlb.entry) addr buf ~pos ~len =
  if e.frame != no_frame then Bytes.blit e.frame (Memory.Addr.offset addr) buf pos len
  else Memory.Phys_mem.read_into phys ~spa:(spa_of e addr) ~dst:buf ~dst_off:pos ~len

let write_page phys (e : Memory.Tlb.entry) addr buf ~pos ~len =
  if e.frame != no_frame then Bytes.blit buf pos e.frame (Memory.Addr.offset addr) len
  else Memory.Phys_mem.write_from phys ~spa:(spa_of e addr) ~src:buf ~src_off:pos ~len

(* Copies a byte range one page at a time: each page is one entry
   lookup plus one [blit].  Both are passed as top-level functions, so
   a copy allocates no closure. *)
let rec copy_pages entry blit t space ~access ~addr buf ~pos ~len =
  if len > 0 then begin
    let chunk = Int.min len (Memory.Addr.page_size - Memory.Addr.offset addr) in
    blit t.phys (entry t space addr access) addr buf ~pos ~len:chunk;
    copy_pages entry blit t space ~access ~addr:(addr + chunk) buf ~pos:(pos + chunk)
      ~len:(len - chunk)
  end

(** CPU access to guest-physical memory from inside the VM: the
    hardware walks the EPT with permission checks, so reads of
    protected-region pages raise {!Memory.Fault.Ept_violation} exactly
    as §4.2 requires. *)
let read_gpa_into t ~gpa ~dst ~dst_off ~len =
  copy_pages gpa_page read_page t () ~access:Memory.Perm.Read ~addr:gpa dst ~pos:dst_off ~len

let write_gpa_from t ~gpa ~src ~src_off ~len =
  copy_pages gpa_page write_page t () ~access:Memory.Perm.Write ~addr:gpa src ~pos:src_off ~len

let read_gpa t ~gpa ~len =
  let out = Bytes.create len in
  read_gpa_into t ~gpa ~dst:out ~dst_off:0 ~len;
  out

let write_gpa t ~gpa data =
  write_gpa_from t ~gpa ~src:data ~src_off:0 ~len:(Bytes.length data)

(** Access through a process's guest page table: two-level translation
    (guest PT then EPT), the path every simulated application load and
    store takes.  A page-granular gva chunk maps into a single frame,
    so each chunk is one translation plus one blit. *)
let read_gva_into t ~pt ~gva ~dst ~dst_off ~len =
  copy_pages gva_page read_page t pt ~access:Memory.Perm.Read ~addr:gva dst ~pos:dst_off ~len

let write_gva_from t ~pt ~gva ~src ~src_off ~len =
  copy_pages gva_page write_page t pt ~access:Memory.Perm.Write ~addr:gva src ~pos:src_off ~len

let read_gva t ~pt ~gva ~len =
  let out = Bytes.create len in
  read_gva_into t ~pt ~gva ~dst:out ~dst_off:0 ~len;
  out

let write_gva t ~pt ~gva data =
  write_gva_from t ~pt ~gva ~src:data ~src_off:0 ~len:(Bytes.length data)

(* Scalar accessors: one TLB-cached entry plus a direct access to its
   frame when the scalar sits inside one page (the overwhelmingly
   common case).  An entry without a frame (MMIO, unbacked) goes
   through physical memory, and a page-straddling scalar falls back to
   the blit path. *)

let[@inline] fits_in_page addr width =
  Memory.Addr.offset addr + width <= Memory.Addr.page_size

let[@inline] get_u32 f off = Int32.to_int (Bytes.get_int32_le f off) land 0xffffffff
let[@inline] set_u32 f off v = Bytes.set_int32_le f off (Int32.of_int v)

let read_gpa_u8 t ~gpa =
  if fits_in_page gpa 1 then
    let e = gpa_entry t ~gpa ~access:Memory.Perm.Read in
    if e.frame != no_frame then Char.code (Bytes.get e.frame (Memory.Addr.offset gpa))
    else Memory.Phys_mem.read_u8 t.phys ~spa:(spa_of e gpa)
  else Char.code (Bytes.get (read_gpa t ~gpa ~len:1) 0)

let write_gpa_u8 t ~gpa v =
  if fits_in_page gpa 1 then
    let e = gpa_entry t ~gpa ~access:Memory.Perm.Write in
    if e.frame != no_frame then
      Bytes.set e.frame (Memory.Addr.offset gpa) (Char.chr (v land 0xff))
    else Memory.Phys_mem.write_u8 t.phys ~spa:(spa_of e gpa) v
  else write_gpa t ~gpa (Bytes.make 1 (Char.chr (v land 0xff)))

let read_gpa_u32 t ~gpa =
  if fits_in_page gpa 4 then
    let e = gpa_entry t ~gpa ~access:Memory.Perm.Read in
    if e.frame != no_frame then get_u32 e.frame (Memory.Addr.offset gpa)
    else Memory.Phys_mem.read_u32 t.phys ~spa:(spa_of e gpa)
  else get_u32 (read_gpa t ~gpa ~len:4) 0

let write_gpa_u32 t ~gpa v =
  if fits_in_page gpa 4 then
    let e = gpa_entry t ~gpa ~access:Memory.Perm.Write in
    if e.frame != no_frame then set_u32 e.frame (Memory.Addr.offset gpa) v
    else Memory.Phys_mem.write_u32 t.phys ~spa:(spa_of e gpa) v
  else begin
    let b = Bytes.create 4 in
    set_u32 b 0 v;
    write_gpa t ~gpa b
  end

let read_gpa_u64 t ~gpa =
  if fits_in_page gpa 8 then
    let e = gpa_entry t ~gpa ~access:Memory.Perm.Read in
    if e.frame != no_frame then Bytes.get_int64_le e.frame (Memory.Addr.offset gpa)
    else Memory.Phys_mem.read_u64 t.phys ~spa:(spa_of e gpa)
  else Bytes.get_int64_le (read_gpa t ~gpa ~len:8) 0

let write_gpa_u64 t ~gpa v =
  if fits_in_page gpa 8 then
    let e = gpa_entry t ~gpa ~access:Memory.Perm.Write in
    if e.frame != no_frame then Bytes.set_int64_le e.frame (Memory.Addr.offset gpa) v
    else Memory.Phys_mem.write_u64 t.phys ~spa:(spa_of e gpa) v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_gpa t ~gpa b
  end

let read_gva_u32 t ~pt ~gva =
  if fits_in_page gva 4 then
    let e = gva_entry t ~pt ~gva ~access:Memory.Perm.Read in
    if e.frame != no_frame then get_u32 e.frame (Memory.Addr.offset gva)
    else Memory.Phys_mem.read_u32 t.phys ~spa:(spa_of e gva)
  else get_u32 (read_gva t ~pt ~gva ~len:4) 0

let write_gva_u32 t ~pt ~gva v =
  if fits_in_page gva 4 then
    let e = gva_entry t ~pt ~gva ~access:Memory.Perm.Write in
    if e.frame != no_frame then set_u32 e.frame (Memory.Addr.offset gva) v
    else Memory.Phys_mem.write_u32 t.phys ~spa:(spa_of e gva) v
  else begin
    let b = Bytes.create 4 in
    set_u32 b 0 v;
    write_gva t ~pt ~gva b
  end

let read_gva_u64 t ~pt ~gva =
  if fits_in_page gva 8 then
    let e = gva_entry t ~pt ~gva ~access:Memory.Perm.Read in
    if e.frame != no_frame then Bytes.get_int64_le e.frame (Memory.Addr.offset gva)
    else Memory.Phys_mem.read_u64 t.phys ~spa:(spa_of e gva)
  else Bytes.get_int64_le (read_gva t ~pt ~gva ~len:8) 0

let write_gva_u64 t ~pt ~gva v =
  if fits_in_page gva 8 then
    let e = gva_entry t ~pt ~gva ~access:Memory.Perm.Write in
    if e.frame != no_frame then Bytes.set_int64_le e.frame (Memory.Addr.offset gva) v
    else Memory.Phys_mem.write_u64 t.phys ~spa:(spa_of e gva) v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_gva t ~pt ~gva b
  end

(** Allocate a fresh page of guest-"RAM": takes a guest-physical page
    from the VM's allocator; it is already EPT-backed (the hypervisor
    populated the VM's whole RAM at boot). *)
let alloc_gpa_page t = Memory.Allocator.alloc_page t.gpa_alloc
let free_gpa_page t gpa = Memory.Allocator.free_page t.gpa_alloc gpa
