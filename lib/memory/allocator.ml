(** Page-granular address-space allocator.

    Used for guest-physical frame allocation inside a VM and for
    carving virtual-address ranges out of a process address space.
    Beyond plain allocate/free it answers the hypervisor's question
    from §5.2: "find a guest physical page address not used by the
    guest OS" — pages the guest never allocated are exactly the unused
    ones, and the hypervisor additionally reserves them so the guest
    cannot allocate them later while they back an mmap. *)

type t = {
  base_pfn : int;
  limit_pfn : int; (* exclusive *)
  mutable next_pfn : int;
  mutable free : int list; (* pages freed by [free_page], for [alloc_page] *)
  runs : (int, int list) Hashtbl.t; (* run length -> freed run bases, LIFO *)
  reserved : unit Int_tbl.t; (* taken out-of-band, at or below [top_free] *)
  mutable top_free : int; (* every pfn above this one is reserved *)
}

let create ~base ~size =
  if not (Addr.is_page_aligned base && Addr.is_page_aligned size) then
    invalid_arg "Allocator.create: unaligned";
  {
    base_pfn = Addr.pfn base;
    limit_pfn = Addr.pfn (base + size);
    next_pfn = Addr.pfn base;
    free = [];
    runs = Hashtbl.create 8;
    reserved = Int_tbl.create 16;
    top_free = Addr.pfn (base + size) - 1;
  }

let total_pages t = t.limit_pfn - t.base_pfn

(* Reserved pages above the watermark are implied by it and never
   stored: a run reserved off the top costs no table write. *)
let reserved_pfn t pfn = (pfn > t.top_free && pfn < t.limit_pfn) || Int_tbl.mem t.reserved pfn

let rec alloc_page t =
  match t.free with
  | pfn :: rest ->
      t.free <- rest;
      if reserved_pfn t pfn then alloc_page t else Addr.of_pfn pfn
  | [] ->
      let rec bump () =
        if t.next_pfn >= t.limit_pfn then raise Out_of_memory
        else begin
          let pfn = t.next_pfn in
          t.next_pfn <- pfn + 1;
          if reserved_pfn t pfn then bump () else Addr.of_pfn pfn
        end
      in
      bump ()

(** Allocate [n] contiguous pages: the run of the same length freed
    most recently by {!free_range}, else fresh pages from the bump
    region (runs are neither split nor coalesced). *)
let alloc_range t n =
  if n <= 0 then invalid_arg "Allocator.alloc_range";
  match Hashtbl.find_opt t.runs n with
  | Some (pfn :: rest) ->
      Hashtbl.replace t.runs n rest;
      Addr.of_pfn pfn
  | Some [] | None ->
      (* Skip over any reserved pages so the range is truly free. *)
      let rec find start =
        if start + n > t.limit_pfn then raise Out_of_memory;
        let rec clear i = i >= n || ((not (reserved_pfn t (start + i))) && clear (i + 1)) in
        if clear 0 then start else find (start + 1)
      in
      let start = find t.next_pfn in
      t.next_pfn <- start + n;
      Addr.of_pfn start

let check_owned t pfn ~what =
  if pfn < t.base_pfn || pfn >= t.limit_pfn then
    invalid_arg ("Allocator." ^ what ^ ": outside region")

let free_page t addr =
  let pfn = Addr.pfn addr in
  check_owned t pfn ~what:"free_page";
  t.free <- pfn :: t.free

(** Return a run of [n] pages obtained from {!alloc_range}; the next
    [alloc_range] of the same length reuses it. *)
let free_range t addr n =
  if n <= 0 then invalid_arg "Allocator.free_range";
  let pfn = Addr.pfn addr in
  check_owned t pfn ~what:"free_range";
  check_owned t (pfn + n - 1) ~what:"free_range";
  let runs = Option.value ~default:[] (Hashtbl.find_opt t.runs n) in
  Hashtbl.replace t.runs n (pfn :: runs)

(* Lower the watermark past reserved pages, which it then implies:
   afterwards [top_free] is the highest unreserved page (or below the
   region) and the table holds no page above it. *)
let settle t =
  while t.top_free >= t.base_pfn && Int_tbl.mem t.reserved t.top_free do
    Int_tbl.remove t.reserved t.top_free;
    t.top_free <- t.top_free - 1
  done

(** Claim a page address the normal allocator has not handed out and
    will never hand out while reserved.  The hypervisor uses this to
    back guest mmaps with unused guest-physical addresses.  Pages are
    taken from the top of the region, far from the bump pointer, so
    reservation and ordinary allocation interleave gracefully; the
    watermark names the highest unreserved page, so no earlier
    reservation is rescanned. *)
let reserve_unused t =
  let pfn = t.top_free in
  if pfn < t.next_pfn then raise Out_of_memory;
  t.top_free <- pfn - 1;
  settle t;
  Addr.of_pfn pfn

(** Contiguous variant of {!reserve_unused}: claims the highest [n]
    consecutive unused pages (device BAR apertures need contiguous
    guest-physical ranges). *)
let reserve_unused_range t n =
  if n <= 0 then invalid_arg "Allocator.reserve_unused_range";
  (* [start] is the highest candidate; a reserved page inside it rules
     out every start up to that page, so jump straight below it.  Every
     candidate lies at or below the watermark, where the table is the
     whole truth. *)
  let rec from_top start =
    if start < t.next_pfn then raise Out_of_memory;
    let rec reserved_in i =
      if i < 0 then None
      else if Int_tbl.mem t.reserved (start + i) then Some (start + i)
      else reserved_in (i - 1)
    in
    match reserved_in (n - 1) with None -> start | Some pfn -> from_top (pfn - n)
  in
  let start = from_top (t.top_free - n + 1) in
  if start + n - 1 = t.top_free then begin
    (* no gap above the run: the watermark drops below it *)
    t.top_free <- start - 1;
    settle t
  end
  else
    for i = 0 to n - 1 do
      Int_tbl.replace t.reserved (start + i) ()
    done;
  Addr.of_pfn start

(** Release a reservation.  A page above the watermark raises it to
    that page, so the reserved pages between the old watermark and the
    page are written to the table. *)
let unreserve t addr =
  let pfn = Addr.pfn addr in
  if pfn > t.top_free then begin
    if pfn < t.limit_pfn then begin
      for p = t.top_free + 1 to pfn - 1 do
        Int_tbl.replace t.reserved p ()
      done;
      t.top_free <- pfn
    end
  end
  else Int_tbl.remove t.reserved pfn

let is_reserved t addr = reserved_pfn t (Addr.pfn addr)
