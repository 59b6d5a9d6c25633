(* Declarative wire-format specs: one declaration per message, four
   derived artifacts (encoder / decoder / sanitizer / fuzzer).  See the
   interface for the design rationale. *)

exception Malformed of string
exception Oversized of { field : string; length : int; limit : int }

type limits = {
  max_transfer_bytes : int;
  poll_timeout_cap_us : float;
  grant_capacity : int;
}

type fval = I of int | I64 of int64 | F of float | S of string | B of bool
type width = U32 | U63
type bound = Lit of int | Max_transfer | Max_mmap | Max_vfd | No_bound

type kind =
  | Int of width
  | Raw64
  | Flag
  | Timeout of { reject : string }
  | Str of { len_off : int; max : int; reject : string }

type field = { fname : string; off : int; kind : kind }

type vcheck =
  | Vrange of { field : string; min : int; max : bound; detail : string }
  | Vwrap of { base : string; len : string; detail : string }
  | Vtimeout of { field : string; detail : string }
  | Vpath of { field : string; detail : string }

type violation = { field : string; detail : string }

(* A rule with its fields resolved to positions in [fields] ([-1]:
   the header vfd); [at2] is a [Vwrap]'s length field. *)
type rule = { check : vcheck; at : int; at2 : int }

type 'm spec = {
  op : int;
  name : string;
  takes_vfd : bool;
  batchable : bool;
  fields : field list;
  vchecks : vcheck list;
  rules : rule list;
  build : vfd:int -> fval list -> 'm;
  parts : 'm -> int * fval list;
}

let spec ~op ~name ~takes_vfd ~batchable ~fields ~vchecks ~build ~parts =
  let position field =
    let rec find i = function
      | [] -> invalid_arg (Printf.sprintf "Wire_spec.spec: %s has no field %s" name field)
      | f :: rest -> if String.equal f.fname field then i else find (i + 1) rest
    in
    if String.equal field "vfd" then -1 else find 0 fields
  in
  let rule check =
    match check with
    | Vrange { field; _ } | Vtimeout { field; _ } | Vpath { field; _ } ->
        { check; at = position field; at2 = -1 }
    | Vwrap { base; len; _ } -> { check; at = position base; at2 = position len }
  in
  {
    op;
    name;
    takes_vfd;
    batchable;
    fields;
    vchecks;
    rules = List.map rule vchecks;
    build;
    parts;
  }

(* Device mmaps legitimately exceed the copy-transfer cap (a GPU BO or
   a netmap ring can be tens of MiB), but must still be bounded. *)
let max_mmap_bytes = 1 lsl 30
let max_vfd = 1 lsl 20

let eval_bound limits = function
  | Lit n -> n
  | Max_transfer -> limits.max_transfer_bytes
  | Max_mmap -> max_mmap_bytes
  | Max_vfd -> max_vfd
  | No_bound -> max_int

let valid_path path =
  let n = String.length path in
  let has_dotdot = ref false in
  for i = 0 to n - 2 do
    if path.[i] = '.' && path.[i + 1] = '.' then has_dotdot := true
  done;
  n > 5 && n <= 256
  && String.sub path 0 5 = "/dev/"
  && (not (String.contains path '\000'))
  && not !has_dotdot

(* ---- coverage registry ---- *)

module Coverage = struct
  let enabled = ref false
  let table : (string, int ref) Hashtbl.t = Hashtbl.create 64
  let enable () = enabled := true
  let disable () = enabled := false
  let reset () = Hashtbl.reset table

  let hit label =
    if !enabled then
      match Hashtbl.find_opt table label with
      | Some r -> incr r
      | None -> Hashtbl.add table label (ref 1)

  let hit_named ~prefix name = if !enabled then hit (prefix ^ name)
  let distinct () = Hashtbl.length table

  let snapshot () =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end

(* ---- slot primitives (little-endian, fixed offsets) ---- *)

let w32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let w64 b off v = Bytes.set_int64_le b off (Int64.of_int v)
let r32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff
let r64 b off = Int64.to_int (Bytes.get_int64_le b off)

let reject label msg =
  Coverage.hit_named ~prefix:"reject." label;
  raise (Malformed msg)

let field_end f =
  match f.kind with
  | Int U32 | Flag -> f.off + 4
  | Int U63 | Raw64 | Timeout _ -> f.off + 8
  | Str { max; _ } -> f.off + max

let payload_span ~payload_base spec =
  List.fold_left (fun acc f -> max acc (field_end f - payload_base)) 0 spec.fields

(* ---- derived encoder ---- *)

let encode_field b ~base f v =
  match (f.kind, v) with
  | Int U32, I v -> w32 b (f.off + base) v
  | Int U63, I v -> w64 b (f.off + base) v
  | Raw64, I64 v -> Bytes.set_int64_le b (f.off + base) v
  | Flag, B v -> w32 b (f.off + base) (if v then 1 else 0)
  | Timeout _, F v ->
      Bytes.set_int64_le b (f.off + base) (Int64.bits_of_float v)
  | Str { len_off; max; _ }, S s ->
      let n = String.length s in
      if n > max then raise (Oversized { field = f.fname; length = n; limit = max });
      if f.off + base + n > Bytes.length b then
        raise
          (Oversized
             { field = f.fname; length = n; limit = Bytes.length b - f.off - base });
      w32 b (len_off + base) n;
      Bytes.blit_string s 0 b (f.off + base) n
  | _ -> invalid_arg ("Wire_spec.encode_field: value shape mismatch on " ^ f.fname)

let encode_fields spec b ~base m =
  let _, vals = spec.parts m in
  try List.iter2 (fun f v -> encode_field b ~base f v) spec.fields vals
  with Invalid_argument _ when List.length vals <> List.length spec.fields ->
    invalid_arg ("Wire_spec.encode_fields: arity mismatch on " ^ spec.name)

(* ---- derived decoder ---- *)

let decode_field b ~base ~msg_prefix f =
  match f.kind with
  | Int U32 -> I (r32 b (f.off + base))
  | Int U63 -> I (r64 b (f.off + base))
  | Raw64 -> I64 (Bytes.get_int64_le b (f.off + base))
  | Flag -> B (r32 b (f.off + base) <> 0)
  | Timeout { reject = msg } ->
      let v = Int64.float_of_bits (Bytes.get_int64_le b (f.off + base)) in
      (* The timeout travels as raw float bits, so a hostile guest can
         encode NaN, negatives or infinities — any of which would
         corrupt the backend's deadline arithmetic (NaN poisons every
         comparison).  Reject them at decode. *)
      if Float.is_nan v || v < 0. || v = infinity then
        reject ("timeout." ^ f.fname) (msg_prefix ^ msg);
      F v
  | Str { len_off; max; reject = msg } ->
      let n = r32 b (len_off + base) in
      if n > max then reject ("str." ^ f.fname) (msg_prefix ^ msg);
      S (Bytes.sub_string b (f.off + base) n)

let decode_fields spec b ~base ~msg_prefix ~vfd =
  spec.build ~vfd
    (List.map (fun f -> decode_field b ~base ~msg_prefix f) spec.fields)

(* ---- derived sanitizer ---- *)

let int_of_fval name = function
  | I v -> v
  | _ -> invalid_arg ("Wire_spec.validate: non-integer field " ^ name)

(* The value clamped at position [i], if any. *)
let rec clamped_at i = function
  | [] -> None
  | (j, v) :: rest -> if j = i then Some v else clamped_at i rest

let validate spec limits ~prefix m =
  let vfd, vals = spec.parts m in
  let get at = if at < 0 then I vfd else List.nth vals at in
  let fail field detail =
    Coverage.hit (Printf.sprintf "sanitize.%s.%s" spec.name field);
    Error { field = prefix ^ field; detail }
  in
  let rec run clamped = function
    | [] -> (
        match clamped with
        | [] -> Ok m
        | _ :: _ ->
            let vals' =
              List.mapi
                (fun i v -> match clamped_at i clamped with Some v' -> v' | None -> v)
                vals
            in
            Ok (spec.build ~vfd vals'))
    | { check = Vrange { field; min; max; detail }; at; _ } :: rest ->
        let v = int_of_fval field (get at) in
        if v < min || v > eval_bound limits max then fail field detail else run clamped rest
    | { check = Vwrap { base; len; detail }; at; at2 } :: rest ->
        let bv = int_of_fval base (get at) in
        let lv = int_of_fval len (get at2) in
        if bv < 0 || bv > max_int - lv then fail base detail else run clamped rest
    | { check = Vtimeout { field; detail }; at; _ } :: rest ->
        let v = match get at with F v -> v | _ -> nan in
        if Float.is_nan v || v < 0. then fail field detail
        else if v > limits.poll_timeout_cap_us then begin
          Coverage.hit (Printf.sprintf "sanitize.clamp.%s.%s" spec.name field);
          run ((at, F limits.poll_timeout_cap_us) :: clamped) rest
        end
        else run clamped rest
    | { check = Vpath { field; detail }; at; _ } :: rest ->
        let p = match get at with S p -> p | _ -> "" in
        if valid_path p then run clamped rest else fail field detail
  in
  run [] spec.rules

(* ---- derived generator: valid skeletons ---- *)

let range_of_field spec fname =
  List.find_map
    (function
      | Vrange { field; min; max; _ } when field = fname -> Some (min, max)
      | _ -> None)
    spec.vchecks

let path_chars = "abcdefghijklmnopqrstuvwxyz0123456789"

let gen_path rng =
  let n = 1 + Sim.Rng.int rng 12 in
  "/dev/"
  ^ String.init n (fun _ ->
        path_chars.[Sim.Rng.int rng (String.length path_chars)])

(* Bound generated magnitudes: valid skeletons should look like live
   traffic (small vfds, modest lengths), not like boundary probes —
   the mutator drives fields hostile afterwards. *)
let gen_cap = 1 lsl 16

let gen_field spec limits rng f =
  match f.kind with
  | Flag -> B (Sim.Rng.bool rng)
  | Raw64 -> I64 (Sim.Rng.next_int64 rng)
  | Timeout _ -> F (Sim.Rng.float rng (Float.min limits.poll_timeout_cap_us 1e6))
  | Str _ -> S (gen_path rng)
  | Int _ ->
      let lo, hi =
        match range_of_field spec f.fname with
        | Some (min_, max_) ->
            (max 0 min_, min (eval_bound limits max_) gen_cap)
        | None -> (0, gen_cap)
      in
      I (lo + Sim.Rng.int rng (hi - lo + 1))

let generate spec limits rng =
  let vfd = if spec.takes_vfd then Sim.Rng.int rng 8 else 0 in
  spec.build ~vfd (List.map (gen_field spec limits rng) spec.fields)

(* ---- grammar-aware hostile mutation ---- *)

let hostile_field rng b ~base f =
  let off = f.off + base in
  match f.kind with
  | Int U32 | Flag ->
      w32 b off
        (match Sim.Rng.int rng 3 with
        | 0 -> 0xffffffff
        | 1 -> max_vfd + 1 + Sim.Rng.int rng 1024
        | _ -> 0x7fffffff)
  | Int U63 | Raw64 ->
      Bytes.set_int64_le b off
        (match Sim.Rng.int rng 3 with
        | 0 -> 0xFFFF_FFFF_FFFF_FFFFL
        | 1 -> Int64.min_int
        | _ -> Int64.logor 0x8000_0000_0000_0000L (Sim.Rng.next_int64 rng))
  | Timeout _ ->
      Bytes.set_int64_le b off
        (Int64.bits_of_float
           (match Sim.Rng.int rng 4 with
           | 0 -> Float.nan
           | 1 -> -1.0
           | 2 -> Float.infinity
           | _ -> Float.neg_infinity))
  | Str { len_off; _ } ->
      w32 b (len_off + base)
        (match Sim.Rng.int rng 3 with
        | 0 -> 257
        | 1 -> 2000
        | _ -> 0xffffffff)

(* ---- sequential streams (snapshot blobs) ---- *)

module Stream = struct
  type cursor = { buf : string; mutable pos : int }

  let cursor buf = { buf; pos = 0 }

  let need c n =
    if c.pos + n > String.length c.buf then
      raise
        (Malformed
           (Printf.sprintf "truncated snapshot at byte %d (need %d more)" c.pos n))

  type 'a t =
    | U32 : (int -> unit) -> int t
    | I64 : (int -> unit) -> int t
    | Bool : bool t
    | Strc : (int -> unit) -> string t
    | Listc : (int -> unit) * 'a t -> 'a list t
    | Pair : 'a t * 'b t -> ('a * 'b) t
    | Conv : ('a -> 'b) * ('b -> 'a) * 'a t -> 'b t

  let nocheck (_ : int) = ()
  let u32 = U32 nocheck
  let u32c check = U32 check
  let i64 = I64 nocheck
  let i64c check = I64 check
  let boolean = Bool
  let strc check = Strc check
  let listc check elem = Listc (check, elem)
  let pair a b = Pair (a, b)
  let conv dec enc t = Conv (dec, enc, t)

  let w32 b v = Buffer.add_int32_le b (Int32.of_int v)
  let w64 b v = Buffer.add_int64_le b (Int64.of_int v)

  let rec write : type a. Buffer.t -> a t -> a -> unit =
   fun b t v ->
    match t with
    | U32 _ -> w32 b v
    | I64 _ -> w64 b v
    | Bool -> w32 b (if v then 1 else 0)
    | Strc _ ->
        w32 b (String.length v);
        Buffer.add_string b v
    | Listc (_, elem) ->
        w32 b (List.length v);
        List.iter (write b elem) v
    | Pair (ta, tb) ->
        let x, y = v in
        write b ta x;
        write b tb y
    | Conv (_, enc, inner) -> write b inner (enc v)

  let r32 c =
    need c 4;
    let v = Int32.to_int (String.get_int32_le c.buf c.pos) land 0xffffffff in
    c.pos <- c.pos + 4;
    v

  let r64 c =
    need c 8;
    let v = Int64.to_int (String.get_int64_le c.buf c.pos) in
    c.pos <- c.pos + 8;
    v

  let rec read : type a. cursor -> a t -> a =
   fun c t ->
    match t with
    | U32 check ->
        let v = r32 c in
        check v;
        v
    | I64 check ->
        let v = r64 c in
        check v;
        v
    | Bool -> r32 c <> 0
    | Strc check ->
        let n = r32 c in
        check n;
        need c n;
        let s = String.sub c.buf c.pos n in
        c.pos <- c.pos + n;
        s
    | Listc (check, elem) ->
        let n = r32 c in
        check n;
        List.init n (fun _ -> read c elem)
    | Pair (ta, tb) ->
        let x = read c ta in
        let y = read c tb in
        (x, y)
    | Conv (dec, _, inner) -> dec (read c inner)
end
