(* Growable float sample buffers with exact nearest-rank quantiles. *)

(* At most [limit] samples are kept, the first ones; later ones are
   dropped, so a buffer's memory does not grow with the host's speed. *)
type t = { mutable a : Float.Array.t; mutable n : int; limit : int }

let create ?(limit = max_int) () = { a = Float.Array.create 256; n = 0; limit }
let count t = t.n
let clear t = t.n <- 0

let add t x =
  if t.n = t.limit then ()
  else begin
  if t.n = Float.Array.length t.a then begin
    let b = Float.Array.create (2 * t.n) in
    Float.Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  Float.Array.unsafe_set t.a t.n x;
  t.n <- t.n + 1
  end

let get t i = Float.Array.get t.a i

let sum t =
  let s = ref 0. in
  for i = 0 to t.n - 1 do
    s := !s +. Float.Array.unsafe_get t.a i
  done;
  !s

let mean t = if t.n = 0 then nan else sum t /. float_of_int t.n

(* Mean of [len] samples starting at [off]. *)
let mean_range t ~off ~len =
  let s = ref 0. in
  for i = off to off + len - 1 do
    s := !s +. get t i
  done;
  !s /. float_of_int len

(* Nearest rank: the smallest sample with at least [q] of all samples at
   or below it.  [nan] when empty. *)
let quantile t q =
  if t.n = 0 then nan
  else begin
    let s = Float.Array.sub t.a 0 t.n in
    Float.Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (q *. float_of_int t.n)) in
    Float.Array.get s (max 0 (min (t.n - 1) (rank - 1)))
  end

let median t = quantile t 0.5

let of_list l =
  let t = create () in
  List.iter (add t) l;
  t
