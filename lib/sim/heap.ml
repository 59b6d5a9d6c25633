(** Binary min-heap specialised to the event queue.

    Keys are [(time, sequence)] pairs; the sequence number makes event
    ordering at equal timestamps deterministic (FIFO in insertion
    order), which the whole simulation's reproducibility rests on.

    Entries live in parallel arrays — unboxed times, sequence numbers
    and values — so a push allocates nothing once the arrays have
    grown.  A value slot past the live size holds [dummy], never a
    stale value: the engine's values are closures over continuations,
    and a popped one must not be kept alive. *)

type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  dummy : 'a;
}

let create ~dummy =
  { times = Float.Array.create 0; seqs = [||]; values = [||]; size = 0; dummy }

let length t = t.size
let is_empty t = t.size = 0

let[@inline] before t i j =
  let ti = Float.Array.unsafe_get t.times i and tj = Float.Array.unsafe_get t.times j in
  ti < tj || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let swap t i j =
  let ti = Float.Array.unsafe_get t.times i in
  Float.Array.unsafe_set t.times i (Float.Array.unsafe_get t.times j);
  Float.Array.unsafe_set t.times j ti;
  let si = Array.unsafe_get t.seqs i in
  Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs j);
  Array.unsafe_set t.seqs j si;
  let vi = Array.unsafe_get t.values i in
  Array.unsafe_set t.values i (Array.unsafe_get t.values j);
  Array.unsafe_set t.values j vi

let grow t =
  let capacity = max 16 (2 * t.size) in
  let times = Float.Array.create capacity in
  Float.Array.blit t.times 0 times 0 t.size;
  let seqs = Array.make capacity 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  let values = Array.make capacity t.dummy in
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.values <- values

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = if left < t.size && before t left i then left else i in
  let smallest = if right < t.size && before t right smallest then right else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let push t ~time ~seq value =
  if t.size = Array.length t.values then grow t;
  let i = t.size in
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.values i value;
  t.size <- i + 1;
  sift_up t i

let min_time t =
  if t.size = 0 then invalid_arg "Heap.min_time: empty";
  Float.Array.unsafe_get t.times 0

let pop t =
  if t.size = 0 then invalid_arg "Heap.pop: empty";
  let top = Array.unsafe_get t.values 0 in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    Float.Array.unsafe_set t.times 0 (Float.Array.unsafe_get t.times last);
    Array.unsafe_set t.seqs 0 (Array.unsafe_get t.seqs last);
    Array.unsafe_set t.values 0 (Array.unsafe_get t.values last)
  end;
  Array.unsafe_set t.values last t.dummy;
  if last > 1 then sift_down t 0;
  top
