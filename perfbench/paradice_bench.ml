(* The Paradice two-clock benchmark.  One workload per run (or [all]):
   build its machine several times (set-up), check one round of every
   build against the existing experiment code, then run rounds against
   the host clock for --seconds and report end-to-end metrics (--trace
   0) or per-layer metrics (--trace 1).  The last line of standard
   output is one JSON object.  See README.md. *)

open Harness

let workloads =
  [ Noop_client.workload; Gpu_client.workload; Netmap_client.workload; Fleet_client.workload ]

(* A metric as printed: name, value, unit, and how many samples it
   summarises. *)
type metric = { m_name : string; value : float; m_unit : string; n : int }

let metric ?(n = 1) m_name m_unit value = { m_name; value; m_unit; n }

(* The second seed of the fleet's seed check: the first build of every
   run uses it, and its completion digest must differ. *)
let held_out seed = Int64.add seed 0x2545F4914F6CDD1DL

let calib = Calib.create ()
let word_bytes = float_of_int (Sys.word_size / 8)
let mib = 1024. *. 1024.

(* ---- set-up: build the machine [reps] times ---------------------------- *)

type setup = {
  inst : inst;  (** the last build, served by the timed phases *)
  setup_s : Samples.t;  (** reference seconds per build *)
  raw_setup_s : Samples.t;  (** wall-clock seconds per build *)
  heap_kb_per_guest : float;
  frames_per_guest : float;
  first_result : result;  (** of the served build's first round *)
}

let check_first_rounds p w (first : result array) =
  let reps = Array.length first in
  (match w.reference with
  | Some (label, run) ->
      let expected = run () in
      Array.iteri
        (fun rep r ->
          Probe.check p
            ~what:
              (Printf.sprintf "build %d: first round %s differs from %s %s" rep (show r) label
                 (show expected))
            (same r expected))
        first;
      Printf.printf "  check: first round of each of %d builds = %s = %s (bit for bit)\n" reps
        (show expected) label
  | None ->
      for rep = 2 to reps - 1 do
        Probe.check p
          ~what:(Printf.sprintf "build %d: same seed, different %s" rep (show first.(rep)))
          (same first.(rep) first.(1))
      done;
      Probe.check p ~what:"held-out seed gave the same digest" (not (same first.(0) first.(1)));
      Printf.printf "  check: seed digest %s on %d builds; held-out seed %s differs\n"
        (show first.(1)) (reps - 1) (show first.(0)))

let set_up p w ~seed ~measure_heap =
  let times = Samples.create () and raw_times = Samples.create () in
  let first = Array.make w.reps (Digest 0L) in
  let last = ref None and heap_kb = ref 0. and frames = ref 0. in
  for rep = 0 to w.reps - 1 do
    last := None;
    Gc.full_major ();
    let live0 = (Gc.quick_stat ()).Gc.live_words in
    let h0 = Probe.now_ns () in
    let h1 = ref h0 in
    let ready () = h1 := Probe.now_ns () in
    let inst = w.build p ~config:w.config ~seed:(if rep = 0 then held_out seed else seed) ~ready in
    let g = Calib.gauge () in
    Calib.add_work calib g ~share:0.5 (!h1 - h0);
    Samples.add times (Calib.reference_s g);
    Samples.add raw_times (float_of_int (!h1 - h0) /. 1e9);
    let guests = float_of_int (List.length (M.guests inst.machine)) in
    if measure_heap then begin
      Gc.full_major ();
      heap_kb :=
        float_of_int ((Gc.quick_stat ()).Gc.live_words - live0) *. word_bytes /. 1024. /. guests
    end;
    frames := float_of_int (Memory.Phys_mem.frame_count inst.machine.M.phys) /. guests;
    (* the first round of every build is checked, never timed *)
    first.(rep) <- inst.result ();
    last := Some inst
  done;
  check_first_rounds p w first;
  match !last with
  | None -> invalid_arg "workload with no builds"
  | Some inst ->
      {
        inst;
        setup_s = times;
        raw_setup_s = raw_times;
        heap_kb_per_guest = !heap_kb;
        frames_per_guest = !frames;
        first_result = first.(w.reps - 1);
      }

(* ---- a timed phase: rounds until the host deadline --------------------- *)

type phase = {
  ops : int;
  failed : int;
  rounds : int;
  host_s : float;  (** reference seconds of the rounds *)
  engine_s : float;
  engine_self_s : float;
  sim_s : float;  (** simulated time the rounds took *)
  window_rates : Samples.t;  (** syscalls per reference second, per window *)
  raw_rates : Samples.t;  (** syscalls per wall-clock second, per window *)
  calib_rate : float;  (** the reference kernel's slices per wall-clock second *)
  c0 : Counters.t;
  c1 : Counters.t;
}

let windows_per_phase = 20

(* Share of measured host time spent on calibration slices. *)
let calib_share = 0.25

let timed_phase p inst ~seconds ~after_round =
  let engine = M.engine inst.machine in
  Gc.full_major ();
  Probe.reset_phase p;
  let c0 = Counters.take inst.machine in
  let start = Probe.now_ns () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let window_ns = int_of_float (seconds *. 1e9 /. float_of_int windows_per_phase) in
  let rates = Samples.create () and raw_rates = Samples.create () in
  let whole = Calib.gauge () and win = ref (Calib.gauge ()) in
  let w_start = ref start and w_ops = ref 0 in
  let rounds = ref 0 and sim = ref 0. and now = ref start in
  while !now < deadline do
    let s0 = Sim.Engine.now engine in
    let h0 = Probe.now_ns () in
    inst.round ();
    Probe.run_engine p engine;
    after_round ();
    let ns = Probe.now_ns () - h0 in
    sim := !sim +. (Sim.Engine.now engine -. s0);
    incr rounds;
    Calib.add_work calib !win ~share:calib_share ns;
    now := Probe.now_ns ();
    if !now - !w_start >= window_ns || (!now >= deadline && Samples.count rates = 0) then begin
      let ops = float_of_int (p.Probe.syscalls - !w_ops) in
      Samples.add rates (ops /. Calib.reference_s !win);
      Samples.add raw_rates (ops /. (float_of_int !win.Calib.work_ns /. 1e9));
      Calib.absorb ~into:whole !win;
      w_start := !now;
      w_ops := p.Probe.syscalls;
      win := Calib.gauge ()
    end
  done;
  Calib.absorb ~into:whole !win;
  let c1 = Counters.take inst.machine in
  {
    ops = p.Probe.syscalls;
    failed = p.Probe.failed;
    rounds = !rounds;
    host_s = Calib.reference_s whole;
    engine_s = float_of_int p.Probe.engine_ns /. 1e9;
    engine_self_s = float_of_int p.Probe.engine_self_ns /. 1e9;
    sim_s = !sim /. 1e6;
    window_rates = rates;
    raw_rates;
    calib_rate = Calib.rate whole;
    c0;
    c1;
  }

let host_us_per_op ph = ph.host_s *. 1e6 /. float_of_int (max 1 ph.ops)

(* Every unit of work the clients saw complete, over the first round
   and the [rounds] timed ones, must be accounted for. *)
let check_completions p w (s : setup) ~rounds =
  let expected = (1 + rounds) * w.units_per_round in
  let got = s.inst.completed () in
  Probe.check p
    ~what:(Printf.sprintf "%d %ss completed, expected %d" got w.unit_name expected)
    (got = expected)

(* ---- end-to-end metrics (--trace 0) ------------------------------------ *)

let end_to_end p w (s : setup) (ph : phase) =
  let units = float_of_int (ph.rounds * w.units_per_round) in
  let lat = p.Probe.sim_lat in
  [
    metric "host_ops_per_s" "1/s" (Samples.median ph.window_rates)
      ~n:(Samples.count ph.window_rates);
    metric "setup_s" "s" (Samples.median s.setup_s) ~n:(Samples.count s.setup_s);
    metric "host_alloc_kb_per_op" "KB"
      ((ph.c1.Counters.allocated_bytes -. ph.c0.Counters.allocated_bytes)
      /. 1024. /. float_of_int (max 1 ph.ops))
      ~n:ph.ops;
    metric "peak_heap_mb" "MB"
      (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. mib);
    metric "sim_op_us_p50" "sim_us" (Samples.quantile lat 0.5) ~n:(Samples.count lat);
    metric "sim_op_us_p99" "sim_us" (Samples.quantile lat 0.99) ~n:(Samples.count lat);
    metric "sim_units_per_s" "1/sim_s" (units /. ph.sim_s) ~n:(int_of_float units);
    metric "ok_op_share" "ratio"
      (float_of_int (ph.ops - ph.failed) /. float_of_int (max 1 ph.ops))
      ~n:ph.ops;
  ]

(* ---- per-layer metrics (--trace 1) ------------------------------------- *)

(* Simulated pipeline stages of Obs.Trace, and the hypervisor memory
   operations it spans inside them. *)
let stages =
  [
    "front:declare"; "front:slot_wait"; "front:publish"; "doorbell:req"; "doorbell:resp";
    "doorbell:req_poll"; "doorbell:resp_poll"; "back:drain"; "back:dispatch"; "back:respond";
    "front:complete";
  ]

let hyp_spans = [ "copy_from_user"; "copy_to_user"; "insert_pfn"; "remove_pfn" ]

type stage_sums = {
  sums : (string, float) Hashtbl.t;
  mutable op_spans : int;
  mutable max_gap_us : float;
  mutable reconciled : int;
}

(* Fold the tracer's spans into per-stage sums and reconcile them, then
   empty it so a long traced phase stays bounded. *)
let harvest p acc tracer =
  List.iter
    (fun (c : Obs.Trace.completed) ->
      if c.c_status = "ok" then
        match c.c_cat with
        | "op" -> acc.op_spans <- acc.op_spans + 1
        | "stage" | "hyp" ->
            let key = c.c_cat ^ "." ^ c.c_name in
            let prev = Option.value ~default:0. (Hashtbl.find_opt acc.sums key) in
            Hashtbl.replace acc.sums key (prev +. c.c_dur)
        | _ -> ())
    (Obs.Trace.completed tracer);
  let r = Obs.Trace.reconcile tracer in
  acc.reconciled <- acc.reconciled + r.Obs.Trace.r_ops;
  acc.max_gap_us <- Float.max acc.max_gap_us r.Obs.Trace.r_max_gap_us;
  (* reset drops open spans: none may cross a round's end *)
  Probe.check p ~what:"a traced span stayed open across rounds" (Obs.Trace.open_count tracer = 0);
  Obs.Trace.reset tracer

(* "doorbell:req" -> "doorbell-req": metric names take no colon. *)
let metric_name s = String.map (function ':' -> '-' | c -> c) s

(* Machine-building calls, over every build of the set-up. *)
let machine_metrics p ~builds =
  let get name = Option.value ~default:(Samples.create ()) (Hashtbl.find_opt p.Probe.setup name) in
  let create = get "machine.create" and attach = get "machine.attach" in
  let add = get "machine.add_guest" in
  let n = Samples.count add in
  (* growth within a build: mean of its last 16 add_guest calls over its
     first 16; 1 when a build has too few guests to tell *)
  let per_build = n / builds in
  let growth =
    if per_build < 32 then 1.
    else
      Samples.median
        (Samples.of_list
           (List.init builds (fun b ->
                let off = b * per_build in
                Samples.mean_range add ~off:(off + per_build - 16) ~len:16
                /. Samples.mean_range add ~off ~len:16)))
  in
  [
    metric "machine.create_ms" "ms" (Samples.median create) ~n:(Samples.count create);
    metric "machine.attach_ms" "ms" (Samples.median attach) ~n:(Samples.count attach);
    metric "machine.add_guest_ms_p50" "ms" (Samples.quantile add 0.5) ~n;
    metric "machine.add_guest_ms_p99" "ms" (Samples.quantile add 0.99) ~n;
    metric "machine.add_guest_growth" "ratio" growth ~n:builds;
  ]

let per_layer p (s : setup) ~machine ~(untraced : phase) ~(spans : phase) ~(traced : phase) acc
    ~sim_identical =
  let q samples quant = if Samples.count samples = 0 then 0. else Samples.quantile samples quant in
  let vfs =
    List.concat_map
      (fun k ->
        let i = Probe.kind_index k and name = Probe.kind_name k in
        let h = p.Probe.host_us.(i) and sm = p.Probe.sim_us.(i) in
        let m suffix u samples quant =
          metric (Printf.sprintf "vfs.%s.%s" name suffix) u (q samples quant) ~n:(Samples.count samples)
        in
        [
          m "host_us_p50" "us" h 0.5; m "host_us_p99" "us" h 0.99;
          m "sim_us_p50" "sim_us" sm 0.5; m "sim_us_p99" "sim_us" sm 0.99;
        ])
      Probe.kinds
  in
  let stage cat name =
    let total = Option.value ~default:0. (Hashtbl.find_opt acc.sums (cat ^ "." ^ name)) in
    let label = if cat = "hyp" then "hyp-" ^ name else metric_name name in
    metric
      (Printf.sprintf "sim_stage.%s_us" label)
      "sim_us"
      (total /. float_of_int (max 1 acc.op_spans))
      ~n:acc.op_spans
  in
  machine
  @ [
      metric "machine.heap_kb_per_guest" "KB" s.heap_kb_per_guest;
      metric "phys_mem.frames_per_guest" "count" s.frames_per_guest;
      metric "engine.serve_host_s" "s" untraced.engine_s;
      metric "engine.self_host_us_per_op" "us"
        (spans.engine_self_s *. 1e6 /. float_of_int (max 1 spans.ops))
        ~n:spans.ops;
    ]
  @ List.map
      (fun (name, v, u) -> metric name u v ~n:untraced.ops)
      (Counters.layer_metrics ~ops:untraced.ops untraced.c0 untraced.c1)
  @ vfs
  @ List.map (stage "stage") stages
  @ List.map (stage "hyp") hyp_spans
  @ [
      metric "trace.reconcile_max_gap_us" "sim_us" acc.max_gap_us ~n:acc.reconciled;
      metric "trace.sim_identical" "bool" (if sim_identical then 1. else 0.);
      metric "trace.span_overhead" "ratio" (host_us_per_op spans /. host_us_per_op untraced);
      metric "trace.overhead" "ratio" (host_us_per_op traced /. host_us_per_op untraced);
    ]

(* ---- one workload ------------------------------------------------------ *)

type outcome = { correct : bool; attempted : int; n_failed : int; metrics : metric list }

let print_phase label (ph : phase) =
  Printf.printf
    "  %s phase: %d rounds, %d syscalls (%d failed), %.6f sim s; %.2f reference us/op; median \
     window %.0f syscalls per wall-clock s, reference kernel at %.0f slices per wall-clock s\n"
    label ph.rounds ph.ops ph.failed ph.sim_s (host_us_per_op ph) (Samples.median ph.raw_rates)
    ph.calib_rate

let no_check () = ()

(* --trace 0: one timed phase, tracing off. *)
let measure p w (s : setup) ~seconds =
  let ph = timed_phase p s.inst ~seconds ~after_round:no_check in
  check_completions p w s ~rounds:ph.rounds;
  print_phase "timed" ph;
  Printf.printf "  set-up: median %.4f wall-clock s per build\n" (Samples.median s.raw_setup_s);
  let sim_rate = float_of_int (ph.rounds * w.units_per_round) /. ph.sim_s in
  Printf.printf "  simulated: %.4f %ss per simulated s%s (paper: %s)\n" sim_rate w.unit_name
    (match w.name with
    | "gpu_frames" -> Printf.sprintf " = sim_fps %.4f" sim_rate
    | "netmap_hybrid" -> Printf.sprintf " = sim_mpps %.4f" (sim_rate /. 1e6)
    | _ -> "")
    w.paper;
  { correct = p.Probe.bad = []; attempted = ph.ops; n_failed = ph.failed; metrics = end_to_end p w s ph }

(* --trace 1: the same build untraced, then with host spans, then a
   second build with the program's tracer on as well. *)
(* Where the traced run writes its spans, relative to the checkout. *)
let out_dir = Filename.concat "perfbench" "out"

let measure_traced p w (s : setup) ~seed ~seconds =
  let machine = machine_metrics p ~builds:w.reps in
  let third = seconds /. 3. in
  p.Probe.timing <- false;
  let untraced = timed_phase p s.inst ~seconds:third ~after_round:no_check in
  print_phase "untraced" untraced;
  p.Probe.timing <- true;
  let spans = timed_phase p s.inst ~seconds:third ~after_round:no_check in
  print_phase "host-spans" spans;
  check_completions p w s ~rounds:(untraced.rounds + spans.rounds);
  p.Probe.timing <- false;
  let tracer = Obs.Trace.create () in
  let ti = w.build p ~config:{ w.config with Paradice.Config.tracer } ~seed ~ready:ignore in
  let sim_identical = same (ti.result ()) s.first_result in
  Probe.check p ~what:"tracing changed the simulated result" sim_identical;
  Obs.Trace.reset tracer;
  let acc =
    { sums = Hashtbl.create 32; op_spans = 0; max_gap_us = 0.; reconciled = 0 }
  in
  let traced = timed_phase p ti ~seconds:third ~after_round:(fun () -> harvest p acc tracer) in
  print_phase "traced" traced;
  Printf.printf "  traced: %d ops reconciled, max gap %g sim us\n" acc.reconciled acc.max_gap_us;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%Ld-spans.jsonl" w.name seed) in
  Spans.write p.Probe.spans path;
  Printf.printf "  wrote %d spans to %s (%d more not kept)\n" (Spans.kept p.Probe.spans) path
    (Spans.dropped p.Probe.spans);
  {
    correct = p.Probe.bad = [];
    attempted = untraced.ops + spans.ops + traced.ops;
    n_failed = untraced.failed + spans.failed + traced.failed;
    metrics = per_layer p s ~machine ~untraced ~spans ~traced acc ~sim_identical;
  }

let run_workload w ~seed ~seconds ~trace =
  Printf.printf "== %s  seed %Ld  %g s  trace %d  nproc %d  OCaml %s\n" w.name seed seconds
    (if trace then 1 else 0)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  let p = Probe.create ~span_cap:(if trace then 50_000 else 0) in
  p.Probe.timing <- trace;
  let s = set_up p w ~seed ~measure_heap:trace in
  let o =
    if trace then measure_traced p w s ~seed ~seconds else measure p w s ~seconds
  in
  List.iter (fun msg -> Printf.printf "  FAILED CHECK: %s\n" msg) (List.rev p.Probe.bad);
  o

(* ---- output ------------------------------------------------------------ *)

let print_table o =
  List.iter
    (fun m -> Printf.printf "  %-40s %18.6f %-8s n=%d\n" m.m_name m.value m.m_unit m.n)
    o.metrics

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json o =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.correct && o.n_failed = 0)
    (max 1 o.attempted) o.n_failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name (json_number m.value)
              m.m_unit)
          o.metrics))

(* The Workloads.Gem defect (README.md): Gfx.run for [frames] Nexuiz
   frames on a fresh machine.  Exits 1 if the run raises. *)
let repro_gem frames =
  let _, env =
    Baselines.Setup.make ~devices:[ Baselines.Setup.Gpu ]
      (Baselines.Setup.Paradice Paradice.Config.default)
  in
  match
    Workloads.Gfx.run env ~profile:Gpu_client.profile ~width:Gpu_client.width
      ~height:Gpu_client.height ~frames ()
  with
  | fps -> Printf.printf "Gfx.run: %d Nexuiz frames completed, %.4f fps\n" frames fps
  | exception e ->
      Printf.printf "Gfx.run: %d Nexuiz frames raised %s\n" frames (Printexc.to_string e);
      exit 1

let usage =
  "paradice_bench --workload (noop|gpu_frames|netmap_hybrid|fleet|all) --seed N --seconds S \
   --trace (0|1)"

let () =
  let workload = ref "" and seed = ref 1L and seconds = ref 10. and trace = ref 0 in
  let gem_frames = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload, or all");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds measured");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--repro-gem", Arg.Set_int gem_frames, "FRAMES run Workloads.Gfx for FRAMES frames and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !gem_frames > 0 then begin
    repro_gem !gem_frames;
    exit 0
  end;
  let chosen =
    if !workload = "all" then workloads else List.filter (fun w -> w.name = !workload) workloads
  in
  if chosen = [] || (!trace <> 0 && !trace <> 1) || !seconds <= 0. then begin
    prerr_endline usage;
    exit 2
  end;
  List.iter
    (fun w ->
      let o = run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
      print_table o;
      print_endline (json o))
    chosen
