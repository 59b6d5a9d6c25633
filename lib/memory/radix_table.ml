(** Generic multi-level radix page table.

    Both translation structures in the machine are instances of this
    module: the guest page tables ({!Guest_pt}, 3 levels, PAE-like) and
    the extended page tables ({!Ept}, 4 levels).  The hypervisor's
    software page walks (§5.2), the CVD frontend's creation of "all
    missing levels except the last one", and the EPT permission
    stripping of §4.2 all operate on this structure, so it models
    individual levels explicitly rather than being a flat map.

    Walks are iterative descents over per-level shifts and masks
    precomputed at {!create} — this is the hottest loop in the repo
    (every data-plane byte crosses at least one walk).  A walk through
    small leaves allocates nothing; a walk ending in a large leaf
    builds the one 4 KiB leaf it reports.

    {e Large leaves.}  A leaf may also sit one level above the last
    (level [levels-2]), covering a whole last-level table's worth of
    frames — 2 MiB with 9-bit levels over 4 KiB pages, as on x86-64.
    It maps frame [k] of its span to [target_pfn + k].  Only
    {!map_range} installs one.  Any finer-grained mutation that lands
    inside it ({!map}, {!unmap}, {!set_perms}, {!ensure_intermediate})
    first {e splits} it into a last-level table of small leaves with
    the same targets and permissions.

    A {e generation counter} is bumped on every mutation that can
    change the outcome of a translation ([map], [map_range], [unmap],
    [set_perms]).  Software TLBs ({!Tlb}) record the generation at fill
    time and treat any mismatch as a miss, so a cached translation can
    never outlive a revoked or modified mapping.  A split changes no
    translation, so it does not bump the generation; the mutation that
    follows it does. *)

type node = { entries : entry array }
and entry = Empty | Table of node | Leaf of leaf
and leaf = { target_pfn : int; perms : Perm.t }

type t = {
  widths : int array; (* bits consumed per level, root first *)
  shifts : int array; (* right-shift isolating each level's index *)
  masks : int array; (* (1 lsl width) - 1 per level *)
  total_bits : int;
  root : node;
  mutable mapped : int; (* mapped frames; a large leaf counts its span *)
  mutable nodes : int;
  mutable generation : int; (* bumped on map/map_range/unmap/set_perms *)
}

let make_node width = { entries = Array.make (1 lsl width) Empty }

let create ~widths =
  match widths with
  | [] -> invalid_arg "Radix_table.create: no levels"
  | w :: _ ->
      let widths = Array.of_list widths in
      let n = Array.length widths in
      let shifts = Array.make n 0 and masks = Array.make n 0 in
      let total_bits = Array.fold_left ( + ) 0 widths in
      let shift = ref total_bits in
      for i = 0 to n - 1 do
        shift := !shift - widths.(i);
        shifts.(i) <- !shift;
        masks.(i) <- (1 lsl widths.(i)) - 1
      done;
      {
        widths;
        shifts;
        masks;
        total_bits;
        root = make_node w;
        mapped = 0;
        nodes = 1;
        generation = 0;
      }

let levels t = Array.length t.widths

let mapped_count t = t.mapped
let node_count t = t.nodes
let generation t = t.generation

let check_range t vfn =
  if vfn lsr t.total_bits <> 0 then
    invalid_arg "Radix_table: frame number out of addressable range"

(* Index of [vfn] at level [i] (root = 0). *)
let[@inline] index t vfn i = (vfn lsr t.shifts.(i)) land t.masks.(i)

(** Outcome of a software walk, reported level by level so callers can
    see exactly where translation stopped. *)
type walk_result =
  | Mapped of leaf
  | Missing_level of int (* intermediate table absent at this depth, 0 = root *)
  | Not_present (* all intermediate levels exist; final entry empty *)

let walk t vfn =
  check_range t vfn;
  let last = levels t - 1 in
  let rec go node i =
    let idx = index t vfn i in
    if i = last then
      match node.entries.(idx) with
      | Leaf leaf -> Mapped leaf
      | Empty -> Not_present
      | Table _ -> invalid_arg "Radix_table.walk: table at leaf level"
    else
      match node.entries.(idx) with
      | Table next -> go next (i + 1)
      | Empty -> Missing_level i
      | Leaf leaf when i = last - 1 ->
          Mapped { leaf with target_pfn = leaf.target_pfn + index t vfn last }
      | Leaf _ -> invalid_arg "Radix_table.walk: leaf at interior level"
  in
  go t.root 0

let lookup t vfn =
  match walk t vfn with Mapped leaf -> Some leaf | Missing_level _ | Not_present -> None

(* Replace the large leaf at [node.entries.(idx)] by a last-level table
   of small leaves with the same targets and permissions. *)
let split t node idx { target_pfn; perms } =
  let width = t.widths.(levels t - 1) in
  let small =
    { entries = Array.init (1 lsl width) (fun k -> Leaf { target_pfn = target_pfn + k; perms }) }
  in
  node.entries.(idx) <- Table small;
  t.nodes <- t.nodes + 1;
  small

(* Descend to the node at level [depth] on [vfn]'s path, creating
   missing tables on the way. *)
let descend t vfn ~depth =
  let node = ref t.root in
  for i = 0 to depth - 1 do
    let idx = index t vfn i in
    match !node.entries.(idx) with
    | Table next -> node := next
    | Empty ->
        let n = make_node t.widths.(i + 1) in
        !node.entries.(idx) <- Table n;
        t.nodes <- t.nodes + 1;
        node := n
    | Leaf leaf when i = levels t - 2 -> node := split t !node idx leaf
    | Leaf _ -> invalid_arg "Radix_table: leaf at interior level"
  done;
  !node

(* The last-level table holding [vfn]'s entry, splitting a large leaf
   in the way. *)
let leaf_table t vfn =
  check_range t vfn;
  descend t vfn ~depth:(levels t - 1)

(** Create intermediate tables down to (but not including) the leaf
    level — the CVD frontend does exactly this for mmap ranges before
    forwarding, leaving the last level for the hypervisor (§5.2). *)
let ensure_intermediate t vfn = ignore (leaf_table t vfn : node)

(** True iff every intermediate level for [vfn] already exists. *)
let intermediate_present t vfn =
  match walk t vfn with
  | Mapped _ | Not_present -> true
  | Missing_level _ -> false

let map t ~vfn ~pfn ~perms =
  let node = leaf_table t vfn in
  let idx = index t vfn (levels t - 1) in
  (match node.entries.(idx) with
  | Empty -> t.mapped <- t.mapped + 1
  | Leaf _ -> ()
  | Table _ -> invalid_arg "Radix_table.map: table at leaf level");
  node.entries.(idx) <- Leaf { target_pfn = pfn; perms };
  t.generation <- t.generation + 1

(* One large leaf over the aligned span starting at [vfn], replacing
   whatever the span held. *)
let map_large t ~vfn ~pfn ~perms =
  let last = levels t - 1 in
  let node = descend t vfn ~depth:(last - 1) in
  let idx = index t vfn (last - 1) in
  (match node.entries.(idx) with
  | Empty -> t.mapped <- t.mapped + (1 lsl t.widths.(last))
  | Leaf _ -> ()
  | Table small ->
      Array.iter (function Empty -> t.mapped <- t.mapped + 1 | _ -> ()) small.entries;
      t.nodes <- t.nodes - 1);
  node.entries.(idx) <- Leaf { target_pfn = pfn; perms };
  t.generation <- t.generation + 1

(** Map [count] consecutive frames, [vfn + k] to [pfn + k].  Each span
    that is aligned and wholly covered becomes one large leaf; the
    remainder gets small leaves.  [pfn] need not be aligned. *)
let map_range t ~vfn ~pfn ~count ~perms =
  if count < 0 then invalid_arg "Radix_table.map_range: negative count";
  if count > 0 then (check_range t vfn; check_range t (vfn + count - 1));
  let span = if levels t < 2 then max_int else 1 lsl t.widths.(levels t - 1) in
  let rec go vfn pfn count =
    if count >= span && vfn land (span - 1) = 0 then begin
      map_large t ~vfn ~pfn ~perms;
      go (vfn + span) (pfn + span) (count - span)
    end
    else if count > 0 then begin
      map t ~vfn ~pfn ~perms;
      go (vfn + 1) (pfn + 1) (count - 1)
    end
  in
  go vfn pfn count

let unmap t vfn =
  match walk t vfn with
  | Missing_level _ | Not_present -> false
  | Mapped _ ->
      (leaf_table t vfn).entries.(index t vfn (levels t - 1)) <- Empty;
      t.mapped <- t.mapped - 1;
      t.generation <- t.generation + 1;
      true

(** Replace the permissions of an existing mapping.  Raises
    [Not_found] when [vfn] is unmapped: permission surgery on absent
    entries would silently mask bugs in the isolation code. *)
let set_perms t ~vfn ~perms =
  match walk t vfn with
  | Mapped leaf -> map t ~vfn ~pfn:leaf.target_pfn ~perms
  | Missing_level _ | Not_present -> raise Not_found

let iter t f =
  (* Depth-first, reconstructing each vfn from the index path; a large
     leaf is reported page by page. *)
  let last = levels t - 1 in
  let rec go node depth acc =
    Array.iteri
      (fun idx entry ->
        let acc = (acc lsl t.widths.(depth)) lor idx in
        match entry with
        | Empty -> ()
        | Table next -> go next (depth + 1) acc
        | Leaf leaf when depth = last -> f acc leaf
        | Leaf { target_pfn; perms } ->
            let width = t.widths.(last) in
            for k = 0 to (1 lsl width) - 1 do
              f ((acc lsl width) lor k) { target_pfn = target_pfn + k; perms }
            done)
      node.entries
  in
  go t.root 0 0
