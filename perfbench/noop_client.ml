(* noop: one guest, back-to-back no-op ioctls on /dev/null0 with
   interrupts — the per-op forwarding path and nothing else. *)

open Harness

(* The noop experiment's op count (bench/experiments.ml). *)
let ops_per_round = 2000

let build p ~config ~seed:_ ~ready =
  let m, (_ : Oskit.Defs.device), _ =
    build_machine p ~config ~attach:M.attach_null ~guests:[ ("guest1", None) ] ()
  in
  let env = R.of_machine ~label:"noop" m in
  let engine = R.engine env in
  let avg = ref nan and done_ops = ref 0 in
  let round task fd =
    let t0 = Sim.Engine.now engine in
    for _ = 1 to ops_per_round do
      match Probe.ioctl p env task fd ~cmd:M.null_ioctl ~arg:0L with
      | Ok 0 -> incr done_ops
      | Ok rc -> Probe.bad_op p (Printf.sprintf "noop ioctl returned %d" rc)
      | Error _ -> ()
    done;
    avg := (Sim.Engine.now engine -. t0) /. float_of_int ops_per_round
  in
  let task, fd =
    Probe.in_engine p engine (fun () ->
        let task = R.spawn_app env ~name:"noop-bench" in
        let fd = Probe.required ~what:"open /dev/null0" (Probe.openf p env task "/dev/null0") in
        (* warm-up: the steady state excludes the cold first op *)
        ignore (Probe.required ~what:"warm-up ioctl" (Probe.ioctl p env task fd ~cmd:M.null_ioctl ~arg:0L));
        ready ();
        round task fd;
        (task, fd))
  in
  {
    machine = m;
    round = (fun () -> Sim.Engine.spawn engine (fun () -> round task fd));
    result = (fun () -> Sim_value !avg);
    completed = (fun () -> !done_ops);
  }

let workload =
  {
    name = "noop";
    unit_name = "op";
    units_per_round = ops_per_round;
    reps = 15;
    config = Paradice.Config.default;
    build;
    reference =
      Some
        ( "Noop_bench.run, us/op",
          fun () ->
            let _, env =
              Baselines.Setup.make ~devices:[ Baselines.Setup.Null ]
                (Baselines.Setup.Paradice Paradice.Config.default)
            in
            Sim_value (Workloads.Noop_bench.run env ~ops:ops_per_round ()) );
    paper = "~35 us/op with interrupts (two inter-VM interrupts)";
  }
