(* Measurement from outside the program: every call the workload clients
   make into a layer goes through here.  Device-file syscalls are
   checked and counted; their simulated latency is always sampled, and
   when [timing] is on (the traced run) their host time is sampled and
   recorded as a span under the running [Sim.Engine.run] span. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type kind = Open | Ioctl | Poll | Mmap

let kinds = [ Open; Ioctl; Poll; Mmap ]
let kind_index = function Open -> 0 | Ioctl -> 1 | Poll -> 2 | Mmap -> 3
let kind_name = function Open -> "open" | Ioctl -> "ioctl" | Poll -> "poll" | Mmap -> "mmap"
let span_names = Array.of_list (List.map (fun k -> "vfs." ^ kind_name k) kinds)

type t = {
  mutable timing : bool;
  spans : Spans.t;
  mutable parent : int;  (** span id of the running engine.run, or 0 *)
  mutable next_op : int;
  mutable syscalls : int;
  mutable failed : int;  (** syscalls that failed or returned a wrong value *)
  sim_lat : Samples.t;  (** simulated us of every syscall *)
  host_us : Samples.t array;  (** per kind, timing on only *)
  sim_us : Samples.t array;
  child_lo : Samples.t;  (** host ns intervals of the running engine.run's syscalls *)
  child_hi : Samples.t;
  mutable engine_ns : int;  (** host time inside Sim.Engine.run *)
  mutable engine_self_ns : int;  (** ... minus the time its syscalls cover *)
  setup : (string, Samples.t) Hashtbl.t;  (** machine-building call times, ms *)
  mutable bad : string list;  (** first failures, newest first *)
  mutable bad_count : int;
}

(* Sample buffers keep their first [sample_limit] samples, so the heap
   does not grow with the host's speed. *)
let sample_limit = 1 lsl 18

let create ~span_cap =
  let per_kind () =
    Array.init (List.length kinds) (fun _ -> Samples.create ~limit:sample_limit ())
  in
  {
    timing = false;
    spans = Spans.create ~cap:span_cap;
    parent = 0;
    next_op = 0;
    syscalls = 0;
    failed = 0;
    sim_lat = Samples.create ~limit:sample_limit ();
    host_us = per_kind ();
    sim_us = per_kind ();
    child_lo = Samples.create ();
    child_hi = Samples.create ();
    engine_ns = 0;
    engine_self_ns = 0;
    setup = Hashtbl.create 8;
    bad = [];
    bad_count = 0;
  }

(* Start of a measured phase: forget the previous phase's syscalls. *)
let reset_phase t =
  t.syscalls <- 0;
  t.failed <- 0;
  t.engine_ns <- 0;
  t.engine_self_ns <- 0;
  Samples.clear t.sim_lat

let note_bad t msg =
  t.bad_count <- t.bad_count + 1;
  if t.bad_count <= 10 then t.bad <- msg :: t.bad

(* An output check of the run; a failed one makes the result incorrect. *)
let check t ~what ok = if not ok then note_bad t what

(* A syscall that returned, but with the wrong value. *)
let bad_op t what =
  t.failed <- t.failed + 1;
  note_bad t what

let setup_samples t name =
  match Hashtbl.find_opt t.setup name with
  | Some s -> s
  | None ->
      let s = Samples.create () in
      Hashtbl.replace t.setup name s;
      s

(* Time one machine-building call; [sim] reads the simulated clock once
   the machine exists. *)
let setup_call t ?(sim = fun () -> 0.) name f =
  let s0 = sim () in
  let h0 = now_ns () in
  let r = f () in
  let h1 = now_ns () in
  Samples.add (setup_samples t name) (float_of_int (h1 - h0) /. 1e6);
  if t.timing then
    Spans.record t.spans ~id:(Spans.fresh t.spans) ~name ~parent:0 ~op:0 ~h0 ~h1 ~s0
      ~s1:(sim ());
  r

(* Host time covered by the union of the recorded child intervals. *)
let covered_ns t =
  let n = Samples.count t.child_lo in
  let idx = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare (Samples.get t.child_lo a) (Samples.get t.child_lo b)) idx;
  let total = ref 0. and lo = ref nan and hi = ref nan in
  Array.iter
    (fun i ->
      let a = Samples.get t.child_lo i and b = Samples.get t.child_hi i in
      if Float.is_nan !hi || a > !hi then begin
        if not (Float.is_nan !hi) then total := !total +. (!hi -. !lo);
        lo := a;
        hi := b
      end
      else if b > !hi then hi := b)
    idx;
  if not (Float.is_nan !hi) then total := !total +. (!hi -. !lo);
  int_of_float !total

(* Drive the engine until its queue drains: the serving layer. *)
let run_engine t engine =
  let id = if t.timing then Spans.fresh t.spans else 0 in
  t.parent <- id;
  Samples.clear t.child_lo;
  Samples.clear t.child_hi;
  let s0 = Sim.Engine.now engine in
  let h0 = now_ns () in
  Sim.Engine.run engine;
  let h1 = now_ns () in
  t.engine_ns <- t.engine_ns + (h1 - h0);
  if t.timing then begin
    t.engine_self_ns <- t.engine_self_ns + (h1 - h0) - covered_ns t;
    Spans.record t.spans ~id ~name:"engine.run" ~parent:0 ~op:0 ~h0 ~h1 ~s0
      ~s1:(Sim.Engine.now engine)
  end;
  t.parent <- 0

(* Run [f] as a simulated process and drain the engine; [f]'s result. *)
let in_engine t engine f =
  let result = ref None in
  Sim.Engine.spawn engine (fun () -> result := Some (f ()));
  run_engine t engine;
  match !result with
  | Some v -> v
  | None -> failwith "client process did not complete (simulation deadlock?)"

let call t (env : Workloads.Runner.env) kind f =
  let engine = Workloads.Runner.engine env in
  let s0 = Sim.Engine.now engine in
  let h0 = if t.timing then now_ns () else 0 in
  let r = f env.Workloads.Runner.kernel in
  let s1 = Sim.Engine.now engine in
  t.syscalls <- t.syscalls + 1;
  (match r with
  | Ok _ -> ()
  | Error e ->
      t.failed <- t.failed + 1;
      note_bad t (Printf.sprintf "%s failed: %s" (kind_name kind) (Oskit.Errno.to_string e)));
  Samples.add t.sim_lat (s1 -. s0);
  if t.timing then begin
    let h1 = now_ns () in
    let k = kind_index kind in
    Samples.add t.host_us.(k) (float_of_int (h1 - h0) /. 1e3);
    Samples.add t.sim_us.(k) (s1 -. s0);
    Samples.add t.child_lo (float_of_int h0);
    Samples.add t.child_hi (float_of_int h1);
    t.next_op <- t.next_op + 1;
    Spans.record t.spans ~id:(Spans.fresh t.spans) ~name:span_names.(k) ~parent:t.parent
      ~op:t.next_op ~h0 ~h1 ~s0 ~s1
  end;
  r

let openf t env task path = call t env Open (fun k -> Oskit.Vfs.openf k task path)
let ioctl t env task fd ~cmd ~arg = call t env Ioctl (fun k -> Oskit.Vfs.ioctl k task fd ~cmd ~arg)

let poll t env task fd ~want_out =
  call t env Poll (fun k ->
      Oskit.Vfs.poll k task fd ~want_in:false ~want_out ~timeout:1_000_000.)

let mmap t env task fd ~len ~pgoff = call t env Mmap (fun k -> Oskit.Vfs.mmap k task fd ~len ~pgoff)

(* Setup calls a workload cannot run without. *)
let required ~what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s failed: %s" what (Oskit.Errno.to_string e))
