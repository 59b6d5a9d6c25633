(** System physical memory.

    Frames are range-backed: allocation only advances a frame-number
    watermark, so every spn in [\[1, next_spn)] is allocated RAM and
    configuring a VM costs nothing per page.  The store maps spn to
    backing only for frames that have been touched or installed:
    - [Ram]: an ordinary 4 KiB byte frame, materialised zero-filled on
      first access;
    - [Mmio]: a device register page whose reads/writes are routed to
      handler callbacks (the GPU register file, the NIC doorbells).

    Contiguous ranges can be reserved for device apertures (a GPU's
    VRAM BAR) so that device memory is system-physically addressable,
    exactly like a PCI BAR on real hardware — this is what lets the
    hypervisor cover device memory with EPT permissions in §4.2. *)

type mmio_handler = {
  mmio_read : offset:int -> len:int -> bytes;
  mmio_write : offset:int -> bytes -> unit;
}

type backing = Ram of Bytes.t | Mmio of mmio_handler

type t = {
  frames : backing Int_tbl.t; (* touched RAM frames and MMIO pages *)
  mutable next_spn : int; (* every spn in [1, next_spn) is allocated *)
}

let create () = { frames = Int_tbl.create 4096; next_spn = 1 }
(* spn 0 is never handed out: a zero address is always a bug. *)

(** Allocate [n] fresh contiguous RAM frames; returns the base spn.
    Backing bytes are materialised on first touch, so multi-gigabyte
    VM RAM costs nothing until used. *)
let alloc_frames t n =
  if n <= 0 then invalid_arg "Phys_mem.alloc_frames";
  let base = t.next_spn in
  t.next_spn <- t.next_spn + n;
  base

let alloc_frame t = alloc_frames t 1

(** Install an MMIO page; returns its spn. *)
let alloc_mmio t handler =
  let spn = alloc_frame t in
  Int_tbl.replace t.frames spn (Mmio handler);
  spn

(* Returned by a lookup miss, and probed for by physical equality. *)
let untouched = Ram Bytes.empty

let is_mmio t spn =
  match Int_tbl.find_default t.frames spn untouched with Mmio _ -> true | Ram _ -> false

let backing t ~spn ~access =
  let b = Int_tbl.find_default t.frames spn untouched in
  if b != untouched then b
  else if spn >= 1 && spn < t.next_spn then begin
    let b = Ram (Bytes.make Addr.page_size '\000') in
    Int_tbl.add t.frames spn b;
    b
  end
  else Fault.bus_error ~addr:(Addr.of_pfn spn) ~access "unpopulated frame"

(** The backing bytes of RAM frame [spn], materialised if untouched;
    [None] for an MMIO page.  A frame never moves once materialised,
    so callers may keep it. *)
let ram_frame t ~spn ~access =
  match backing t ~spn ~access with Ram frame -> Some frame | Mmio _ -> None

(* One frame's share of a blit: [len] bytes at [spa], all in one
   frame. *)
let read_chunk t ~spa dst ~pos ~len =
  match backing t ~spn:(Addr.pfn spa) ~access:Perm.Read with
  | Ram frame -> Bytes.blit frame (Addr.offset spa) dst pos len
  | Mmio h -> Bytes.blit (h.mmio_read ~offset:(Addr.offset spa) ~len) 0 dst pos len

let write_chunk t ~spa src ~pos ~len =
  match backing t ~spn:(Addr.pfn spa) ~access:Perm.Write with
  | Ram frame -> Bytes.blit src pos frame (Addr.offset spa) len
  | Mmio h -> h.mmio_write ~offset:(Addr.offset spa) (Bytes.sub src pos len)

(* Splits a range at frame boundaries and hands each piece to [chunk],
   a top-level function, so a copy allocates no closure. *)
let rec frame_chunks chunk t ~spa buf ~pos ~len =
  if len > 0 then begin
    let n = min len (Addr.page_size - Addr.offset spa) in
    chunk t ~spa buf ~pos ~len:n;
    frame_chunks chunk t ~spa:(spa + n) buf ~pos:(pos + n) ~len:(len - n)
  end

(** Zero-copy read: blit [len] bytes at system physical address [spa]
    into [dst] at [dst_off].  May cross frame boundaries; no
    intermediate buffer or closure is allocated (the data-plane fast
    path). *)
let read_into t ~spa ~dst ~dst_off ~len =
  if len < 0 then invalid_arg "Phys_mem.read_into: negative length";
  if dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Phys_mem.read_into: destination range out of bounds";
  frame_chunks read_chunk t ~spa dst ~pos:dst_off ~len

(** Zero-copy write: blit [len] bytes of [src] from [src_off] to
    system physical address [spa]. *)
let write_from t ~spa ~src ~src_off ~len =
  if len < 0 then invalid_arg "Phys_mem.write_from: negative length";
  if src_off < 0 || src_off + len > Bytes.length src then
    invalid_arg "Phys_mem.write_from: source range out of bounds";
  frame_chunks write_chunk t ~spa src ~pos:src_off ~len

(** Read [len] bytes at system physical address [spa].  May cross frame
    boundaries. *)
let read t ~spa ~len =
  if len < 0 then invalid_arg "Phys_mem.read: negative length";
  let out = Bytes.create len in
  read_into t ~spa ~dst:out ~dst_off:0 ~len;
  out

(** Write [data] at system physical address [spa]. *)
let write t ~spa data = write_from t ~spa ~src:data ~src_off:0 ~len:(Bytes.length data)

(* Scalar accessors address the backing frame directly — no
   intermediate buffer.  These carry the descriptor-ring doorbell
   path, so a fresh [Bytes] per slot-state poll would be pure harness
   overhead.  Scalars straddling a frame boundary (misaligned by
   design only in tests) fall back to the buffered path. *)

let[@inline] direct_frame t ~spa ~access ~width =
  if Addr.offset spa + width <= Addr.page_size then
    match backing t ~spn:(Addr.pfn spa) ~access with
    | Ram frame -> Some frame
    | Mmio _ -> None
  else None

let read_u8 t ~spa =
  match direct_frame t ~spa ~access:Perm.Read ~width:1 with
  | Some frame -> Char.code (Bytes.get frame (Addr.offset spa))
  | None -> Char.code (Bytes.get (read t ~spa ~len:1) 0)

let write_u8 t ~spa v =
  match direct_frame t ~spa ~access:Perm.Write ~width:1 with
  | Some frame -> Bytes.set frame (Addr.offset spa) (Char.chr (v land 0xff))
  | None -> write t ~spa (Bytes.make 1 (Char.chr (v land 0xff)))

let read_u32 t ~spa =
  match direct_frame t ~spa ~access:Perm.Read ~width:4 with
  | Some frame -> Int32.to_int (Bytes.get_int32_le frame (Addr.offset spa)) land 0xffffffff
  | None -> Int32.to_int (Bytes.get_int32_le (read t ~spa ~len:4) 0) land 0xffffffff

let write_u32 t ~spa v =
  match direct_frame t ~spa ~access:Perm.Write ~width:4 with
  | Some frame -> Bytes.set_int32_le frame (Addr.offset spa) (Int32.of_int v)
  | None ->
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.of_int v);
      write t ~spa b

let read_u64 t ~spa =
  match direct_frame t ~spa ~access:Perm.Read ~width:8 with
  | Some frame -> Bytes.get_int64_le frame (Addr.offset spa)
  | None -> Bytes.get_int64_le (read t ~spa ~len:8) 0

let write_u64 t ~spa v =
  match direct_frame t ~spa ~access:Perm.Write ~width:8 with
  | Some frame -> Bytes.set_int64_le frame (Addr.offset spa) v
  | None ->
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 v;
      write t ~spa b

(** Zero a whole frame — the hypervisor scrubs protected-region pages
    before recycling them between guests (§5.3 change (i)). *)
let zero_frame t spn =
  match backing t ~spn ~access:Perm.Write with
  | Ram frame -> Bytes.fill frame 0 Addr.page_size '\000'
  | Mmio _ -> invalid_arg "Phys_mem.zero_frame: MMIO page"

(** Frames allocated so far, RAM and MMIO, touched or not. *)
let frame_count t = t.next_spn - 1
