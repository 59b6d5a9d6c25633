(** Generated per-ioctl argument sanitizers.

    {!Analyzer.Facts} compiles each handler's interface facts into
    {!Analyzer.Facts.check} records; this module interprets them in
    front of the device handler in the backend — the runtime half of
    the paper's analyzer → checking loop (§5.1 + §4).  The guard
    re-reads only the depth-1 argument struct (uncharged, straight
    through the hypervisor: the handler will perform — and be billed
    for — the real grant-checked copy), so a clean workload's
    simulated-time results are bit-identical with guards on or off.

    Error-semantics contract: the guard rejects only {e value} facts
    (ranges, lengths, indices).  An unreadable argument pointer passes
    through so the handler raises the same EFAULT it always did, and
    unknown commands pass through to the driver's own ENOTTY.

    Coverage: a rejection hits [sanitize.<class>.<handler>.<check>]
    and an accepted known command hits [handler.<class>.<handler>],
    giving the hostile campaigns per-class branch feedback. *)

type verdict = Pass | Reject of { handler : string; violated : string }

(* must match Extract.runtime_eval's For bound: a loop count above it
   would be rejected by the Jit interpreter anyway *)
let jit_loop_bound = 65536

let field_value data ~offset ~width =
  if offset < 0 || offset + width > Bytes.length data then None
  else
    Some
      (match width with
      | 4 -> Int32.to_int (Bytes.get_int32_le data offset) land 0xffffffff
      | 8 -> Int64.to_int (Bytes.get_int64_le data offset)
      | 1 -> Char.code (Bytes.get data offset)
      | _ -> 0)

let eval_check ~(limits : Wire_spec.limits) data (c : Analyzer.Facts.check) =
  match c with
  | Analyzer.Facts.Check_range { offset; width; lo; hi; _ } -> (
      match field_value data ~offset ~width with
      | None -> None
      | Some v ->
          let bad_lo = match lo with Some l -> v < l | None -> false in
          let bad_hi = match hi with Some h -> v > h | None -> false in
          if bad_lo || bad_hi then Some (Analyzer.Facts.check_label c) else None)
  | Analyzer.Facts.Check_len { offset; width; scale; loop; _ } -> (
      match field_value data ~offset ~width with
      | None -> None
      | Some v ->
          let bytes = v * scale in
          if
            v < 0 || bytes < 0
            || bytes > limits.Wire_spec.max_transfer_bytes
            || (loop && v > jit_loop_bound)
          then Some (Analyzer.Facts.check_label c)
          else None)

(* A handler's sanitizer, compiled once from its facts: the checks in
   evaluation order, each with its coverage label, and the label of an
   accepted call. *)
type guard = {
  fact : Analyzer.Facts.handler_fact;
  checks : (Analyzer.Facts.check * string) list;
  pass_label : string;
}

let compile dev_class (hf : Analyzer.Facts.handler_fact) =
  let name = hf.Analyzer.Facts.hf_name in
  {
    fact = hf;
    checks =
      List.map
        (fun c ->
          (c, Printf.sprintf "sanitize.%s.%s.%s" dev_class name (Analyzer.Facts.check_label c)))
        (Analyzer.Facts.checks hf);
    pass_label = Printf.sprintf "handler.%s.%s" dev_class name;
  }

(* Every class's guards by command, built on first use.  A command
   listed twice keeps its first handler, as {!Analyzer.Facts.find}
   does. *)
let guards : (string * guard Memory.Int_tbl.t) list Lazy.t =
  lazy
    (List.map
       (fun (cls, (facts : Analyzer.Facts.t)) ->
         let by_cmd = Memory.Int_tbl.create 16 in
         List.iter
           (fun (hf : Analyzer.Facts.handler_fact) ->
             if not (Memory.Int_tbl.mem by_cmd hf.hf_cmd) then
               Memory.Int_tbl.add by_cmd hf.hf_cmd (compile cls hf))
           facts.Analyzer.Facts.fd_handlers;
         (cls, by_cmd))
       (Lazy.force Analyzer.Classes.facts))

let rec class_guards cls = function
  | [] -> None
  | (c, by_cmd) :: rest -> if String.equal c cls then Some by_cmd else class_guards cls rest

let rec first_violation ~limits data = function
  | [] -> None
  | (c, label) :: rest -> (
      match eval_check ~limits data c with
      | Some violated -> Some (violated, label)
      | None -> first_violation ~limits data rest)

let check ~dev_class ~cmd ~(arg : int64) ~limits ~read : verdict =
  match class_guards dev_class (Lazy.force guards) with
  | None -> Pass
  | Some by_cmd -> (
      match Memory.Int_tbl.find_opt by_cmd cmd with
      | None -> Pass (* not an analyzed command: the driver answers ENOTTY *)
      | Some g ->
          let hf = g.fact in
          let violation =
            if hf.Analyzer.Facts.hf_arg_len = 0 || g.checks = [] then None
            else
              match read ~addr:(Int64.to_int arg) ~len:hf.Analyzer.Facts.hf_arg_len with
              | exception _ -> None (* let the handler produce its own EFAULT *)
              | data -> first_violation ~limits data g.checks
          in
          match violation with
          | None ->
              Wire_spec.Coverage.hit g.pass_label;
              Pass
          | Some (violated, label) ->
              Wire_spec.Coverage.hit label;
              Reject { handler = hf.Analyzer.Facts.hf_name; violated })

(* ------------------------------------------------------------------ *)
(* Fact-driven hostile generators (the wire_spec grammar idea applied  *)
(* to ioctl argument structures)                                       *)
(* ------------------------------------------------------------------ *)

module Fuzz = struct
  type mem = {
    alloc : int -> int;  (** carve [n] bytes of guest memory, zeroed *)
    write32 : addr:int -> int -> unit;
    write64 : addr:int -> int64 -> unit;
  }

  let cmds ~dev_class =
    match Analyzer.Classes.facts_for dev_class with
    | None -> []
    | Some t -> List.map (fun hf -> hf.Analyzer.Facts.hf_cmd) t.Analyzer.Facts.fd_handlers

  let in_range ~rand (r : Analyzer.Facts.range) ~default =
    match (r.lo, r.hi) with
    | Some l, Some h -> if h > l then l + rand (h - l + 1) else l
    | Some l, None -> l + rand 4
    | None, Some h -> max 0 (h - rand 4)
    | None, None -> default

  let write_field mem ~addr ~width v =
    if width = 8 then mem.write64 ~addr (Int64.of_int v) else mem.write32 ~addr v

  (** Build a well-formed argument for [cmd] in guest memory: every
      direct field respects its fact (pointers point at real, zeroed
      allocations; lengths, indices and scalars sit inside their
      ranges). *)
  let seed ~rand mem ~dev_class ~cmd =
    match Analyzer.Classes.fact_for ~dev_class ~cmd with
    | None -> Int64.of_int (rand 2)
    | Some hf ->
        if hf.Analyzer.Facts.hf_arg_len = 0 then Int64.of_int (rand 2)
        else begin
          let base = mem.alloc (max hf.Analyzer.Facts.hf_arg_len 8) in
          List.iter
            (fun (f : Analyzer.Facts.field_fact) ->
              if f.ff_direct then
                let addr = base + f.ff_offset in
                match f.ff_role with
                | Ptr _ ->
                    let target = mem.alloc 128 in
                    write_field mem ~addr ~width:f.ff_width target
                | Len _ ->
                    write_field mem ~addr ~width:f.ff_width
                      (in_range ~rand f.ff_range ~default:(1 + rand 4))
                | Index _ | Scalar ->
                    write_field mem ~addr ~width:f.ff_width
                      (in_range ~rand f.ff_range ~default:(rand 4)))
            hf.Analyzer.Facts.hf_fields;
          Int64.of_int base
        end

  (** A value violating [c] — [None] when the check admits every
      unsigned value (a [lo = 0]-only range). *)
  let violation_value ~rand ~(limits : Wire_spec.limits) (c : Analyzer.Facts.check) =
    match c with
    | Analyzer.Facts.Check_range { lo; hi; _ } -> (
        match (lo, hi) with
        | Some l, _ when l > 0 && rand 2 = 0 -> Some (l - 1)
        | _, Some h -> Some (h + 1 + rand 1000)
        | Some l, None when l > 0 -> Some (l - 1)
        | _ -> None)
    | Analyzer.Facts.Check_len { scale; loop; _ } ->
        let cap =
          if loop then jit_loop_bound
          else limits.Wire_spec.max_transfer_bytes / max scale 1
        in
        Some (cap + 1 + rand 1000)

  (** Grammar-aware hostile argument: seed a well-formed struct, then
      inject one fact violation (or, for commands with no enforceable
      facts and occasionally otherwise, swap in a wild pointer). *)
  let mutate ~rand ~limits mem ~dev_class ~cmd =
    match Analyzer.Classes.fact_for ~dev_class ~cmd with
    | None -> Int64.of_int (0xdead_0000 + rand 0x1000)
    | Some hf -> (
        let wild () = Int64.of_int (0x7fff_0000 + (rand 0x100 * 0x1000)) in
        let checks = Analyzer.Facts.checks hf in
        if checks = [] || rand 4 = 0 then wild ()
        else
          let arg = seed ~rand mem ~dev_class ~cmd in
          let c = List.nth checks (rand (List.length checks)) in
          let offset, width =
            match c with
            | Analyzer.Facts.Check_range { offset; width; _ }
            | Analyzer.Facts.Check_len { offset; width; _ } ->
                (offset, width)
          in
          match violation_value ~rand ~limits c with
          | None -> wild ()
          | Some v ->
              write_field mem ~addr:(Int64.to_int arg + offset) ~width v;
              arg)
end
