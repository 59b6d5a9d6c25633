(** Binary min-heap specialised to the event queue.

    Keys are [(time, sequence)] pairs; the sequence number makes event
    ordering at equal timestamps deterministic (FIFO in insertion
    order), which the whole simulation's reproducibility rests on.

    Values never move.  Each one is parked in a slot of [values] for
    its whole stay, and the heap proper orders only unboxed keys:
    position [i] holds a time in [times], a sequence number in [seqs]
    and the index of its value's slot in [slot_of].  Sifting therefore
    writes floats and ints only — no [caml_modify], no write barrier —
    and moves each entry once per level (a hole slides down or up and
    the entry is written where it stops), instead of swapping.

    [slot_of] is a permutation of all slots: positions below [size]
    name the live slots, positions from [size] on the free ones.  A
    push takes the free slot at position [size]; a pop resets its slot
    to [dummy] at once — the engine's values may hold continuations,
    and a popped one must not be kept alive — and
    leaves it at the position the heap just vacated. *)

type 'a t = {
  mutable times : Float.Array.t; (* by heap position *)
  mutable seqs : int array; (* by heap position *)
  mutable slot_of : int array; (* by heap position: slot of its value *)
  mutable values : 'a array; (* by slot; [dummy] when free *)
  mutable size : int;
  dummy : 'a;
}

let create ~dummy =
  { times = Float.Array.create 0; seqs = [||]; slot_of = [||]; values = [||]; size = 0; dummy }

let length t = t.size
let is_empty t = t.size = 0

(* Only called with every slot live ([size] = capacity), so the new
   positions get the new slots. *)
let grow t =
  let cap = Array.length t.values in
  let capacity = max 16 (2 * cap) in
  let times = Float.Array.create capacity in
  Float.Array.blit t.times 0 times 0 cap;
  let seqs = Array.make capacity 0 in
  Array.blit t.seqs 0 seqs 0 cap;
  let slot_of = Array.init capacity Fun.id in
  Array.blit t.slot_of 0 slot_of 0 cap;
  let values = Array.make capacity t.dummy in
  Array.blit t.values 0 values 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.slot_of <- slot_of;
  t.values <- values

let[@inline] set_entry t i time seq slot =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.slot_of i slot

(* Sift the entry at [i] up: a hole slides up from [i] and the entry
   is written once, where it stops.  The entry's key is read here, not
   passed in, so no float crosses a call boxed. *)
let sift_up t i =
  let time = Float.Array.unsafe_get t.times i
  and seq = Array.unsafe_get t.seqs i
  and slot = Array.unsafe_get t.slot_of i in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let tp = Float.Array.unsafe_get t.times parent in
    if time < tp || (time = tp && seq < Array.unsafe_get t.seqs parent) then begin
      set_entry t !i tp (Array.unsafe_get t.seqs parent) (Array.unsafe_get t.slot_of parent);
      i := parent
    end
    else continue := false
  done;
  set_entry t !i time seq slot

(* Sift the entry at [i] down, the same way. *)
let sift_down t i =
  let time = Float.Array.unsafe_get t.times i
  and seq = Array.unsafe_get t.seqs i
  and slot = Array.unsafe_get t.slot_of i in
  let size = t.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 in
    if left >= size then continue := false
    else begin
      let right = left + 1 in
      let child =
        if right < size then begin
          let tl = Float.Array.unsafe_get t.times left
          and tr = Float.Array.unsafe_get t.times right in
          if tr < tl || (tr = tl && Array.unsafe_get t.seqs right < Array.unsafe_get t.seqs left)
          then right
          else left
        end
        else left
      in
      let tc = Float.Array.unsafe_get t.times child and sc = Array.unsafe_get t.seqs child in
      if tc < time || (tc = time && sc < seq) then begin
        set_entry t !i tc sc (Array.unsafe_get t.slot_of child);
        i := child
      end
      else continue := false
    end
  done;
  set_entry t !i time seq slot

let push t ~time ~seq value =
  let i = t.size in
  if i = Array.length t.values then grow t;
  let slot = Array.unsafe_get t.slot_of i in
  Array.unsafe_set t.values slot value;
  set_entry t i time seq slot;
  t.size <- i + 1;
  if i > 0 then sift_up t i

let min_time t =
  if t.size = 0 then invalid_arg "Heap.min_time: empty";
  Float.Array.unsafe_get t.times 0

let pop t =
  if t.size = 0 then invalid_arg "Heap.pop: empty";
  let slot = Array.unsafe_get t.slot_of 0 in
  let top = Array.unsafe_get t.values slot in
  Array.unsafe_set t.values slot t.dummy;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    set_entry t 0
      (Float.Array.unsafe_get t.times last)
      (Array.unsafe_get t.seqs last)
      (Array.unsafe_get t.slot_of last);
    sift_down t 0
  end;
  Array.unsafe_set t.slot_of last slot;
  top
