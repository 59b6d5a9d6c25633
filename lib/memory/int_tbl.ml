(** Hash table with [int] keys, a drop-in for [(int, 'a) Hashtbl.t]
    on the data path.

    The polymorphic [Hashtbl] pays a C [caml_hash] call and a
    [compare_val] call per probe; this table hashes with the same
    function written in OCaml and compares keys with [=] on ints.

    It also {e iterates in exactly the stdlib's order}: {!hash} is
    bit-identical to [Hashtbl.hash] on every int, and the bucket
    array, head insertion, in-place replace and order-preserving
    resize follow [Stdlib.Hashtbl] (OCaml 5) step by step.  Converting
    a table whose [iter]/[fold] order reaches the simulation therefore
    changes no output. *)

type 'a bucket = Empty | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable size : int;
  mutable data : 'a bucket array;
  initial_size : int;
  mutable traversing : bool; (* resize copies cells while set *)
}

let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land 0xffffffff
let[@inline] mul32 x c = (x * c) land 0xffffffff

(* [caml_hash] on an immediate: one MurmurHash3 round over the tagged
   word [2k+1] folded to 32 bits ([caml_hash_mix_intnat]: low word xor
   high word xor sign), then the final avalanche, then 30 bits.  The
   fold is computed from [k] directly: bits 32..63 of the tagged word
   are [k asr 31], bit 63 is the sign. *)
let hash k =
  let n = ((k lsl 1) lor 1) lxor (k asr 31) lxor (k asr 62) land 0xffffffff in
  let n = mul32 (rotl32 (mul32 n 0xcc9e2d51) 15) 0x1b873593 in
  let h = ((rotl32 n 13 * 5) + 0xe6546b64) land 0xffffffff in
  let h = h lxor (h lsr 16) in
  let h = mul32 h 0x85ebca6b in
  let h = h lxor (h lsr 13) in
  let h = mul32 h 0xc2b2ae35 in
  let h = h lxor (h lsr 16) in
  h land 0x3fffffff

let rec power_2_above x n =
  if x >= n then x else if x * 2 > Sys.max_array_length then x else power_2_above (x * 2) n

let create n =
  let s = power_2_above 16 n in
  { size = 0; data = Array.make s Empty; initial_size = s; traversing = false }

let length t = t.size

(* Back to the initial bucket count, as [Hashtbl.reset]. *)
let reset t =
  if Array.length t.data = t.initial_size then Array.fill t.data 0 t.initial_size Empty
  else t.data <- Array.make t.initial_size Empty;
  t.size <- 0

let[@inline] index t key = hash key land (Array.length t.data - 1)

(* Each old bucket is appended, in order, to the tails of the new
   ones: the stdlib's order-preserving rehash. *)
let resize t =
  let odata = t.data in
  let nsize = 2 * Array.length odata in
  if nsize < Sys.max_array_length then begin
    let ndata = Array.make nsize Empty in
    let tails = Array.make nsize Empty in
    t.data <- ndata;
    let rec insert = function
      | Empty -> ()
      | Cons { key; data; next } as cell ->
          let cell = if t.traversing then Cons { key; data; next = Empty } else cell in
          let i = index t key in
          (match tails.(i) with Empty -> ndata.(i) <- cell | Cons tail -> tail.next <- cell);
          tails.(i) <- cell;
          insert next
    in
    Array.iter insert odata;
    if not t.traversing then
      Array.iter (function Empty -> () | Cons tail -> tail.next <- Empty) tails
  end

let add t key data =
  let i = index t key in
  t.data.(i) <- Cons { key; data; next = t.data.(i) };
  t.size <- t.size + 1;
  if t.size > Array.length t.data lsl 1 then resize t

let rec replace_in key data = function
  | Empty -> true
  | Cons c ->
      if c.key = key then begin
        c.data <- data;
        false
      end
      else replace_in key data c.next

let replace t key data =
  let i = index t key in
  let bucket = t.data.(i) in
  if replace_in key data bucket then begin
    t.data.(i) <- Cons { key; data; next = bucket };
    t.size <- t.size + 1;
    if t.size > Array.length t.data lsl 1 then resize t
  end

let rec remove_in t i key prev = function
  | Empty -> ()
  | Cons c as cell ->
      if c.key = key then begin
        t.size <- t.size - 1;
        match prev with Empty -> t.data.(i) <- c.next | Cons p -> p.next <- c.next
      end
      else remove_in t i key cell c.next

let remove t key =
  let i = index t key in
  remove_in t i key Empty t.data.(i)

let rec find_in key = function
  | Empty -> raise Not_found
  | Cons c -> if c.key = key then c.data else find_in key c.next

let find t key = find_in key t.data.(index t key)

let rec find_default_in key default = function
  | Empty -> default
  | Cons c -> if c.key = key then c.data else find_default_in key default c.next

let find_default t key default = find_default_in key default t.data.(index t key)

let rec find_opt_in key = function
  | Empty -> None
  | Cons c -> if c.key = key then Some c.data else find_opt_in key c.next

let find_opt t key = find_opt_in key t.data.(index t key)

let rec mem_in key = function Empty -> false | Cons c -> c.key = key || mem_in key c.next
let mem t key = mem_in key t.data.(index t key)

(* A resize during a traversal copies cells instead of relinking
   them, so the traversal's bucket array stays intact. *)
let traverse t visit =
  let outer = t.traversing in
  t.traversing <- true;
  match visit t.data with
  | () -> t.traversing <- outer
  | exception e ->
      t.traversing <- outer;
      raise e

let iter f t =
  let rec go = function
    | Empty -> ()
    | Cons { key; data; next } ->
        f key data;
        go next
  in
  traverse t (Array.iter go)

let fold f t init =
  let rec go acc = function Empty -> acc | Cons { key; data; next } -> go (f key data acc) next in
  let acc = ref init in
  traverse t (Array.iter (fun b -> acc := go !acc b));
  !acc
