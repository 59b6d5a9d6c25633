(* fleet: one machine, 208 guests of 8 MiB and a 32 MiB driver VM,
   every guest a closed loop of no-op ioctls with seeded 0-20 us think
   time.  Building the machine is set-up; serving is the rounds. *)

open Harness

let guests = 208
let guest_mem_mib = 8
let driver_mem_mib = 32

(* Ops each guest completes per round. *)
let ops_per_guest = 8
let think_us = 20.

let build p ~config ~seed ~ready =
  let names = List.init guests (fun i -> (Printf.sprintf "g%d" i, Some guest_mem_mib)) in
  let m, (_ : Oskit.Defs.device), added =
    build_machine p ~config ~driver_mem_mib ~attach:M.attach_null ~guests:names ()
  in
  let engine = M.engine m in
  (* the fleet seeding chain of Workloads.Fleet_load, as shard 0:
     master seed -> shard stream -> shard seed -> one stream per guest *)
  let shard_seed = Sim.Rng.next_int64 (Sim.Rng.derive ~seed ~index:0) in
  let clients =
    Array.of_list
      (List.mapi
         (fun i (g : M.guest) ->
           let env = R.of_guest ~label:(Printf.sprintf "g%d" i) m g in
           let rng = Sim.Rng.derive ~seed:shard_seed ~index:i in
           (env, rng, ref None))
         added)
  in
  (* every guest opens the null device and warms its channel *)
  Array.iter
    (fun (env, _, slot) ->
      Sim.Engine.spawn engine (fun () ->
          let task = R.spawn_app env ~name:"fleet-app" in
          let fd = Probe.required ~what:"open /dev/null0" (Probe.openf p env task "/dev/null0") in
          ignore (Probe.required ~what:"warm-up ioctl" (Probe.ioctl p env task fd ~cmd:M.null_ioctl ~arg:0L));
          slot := Some (task, fd)))
    clients;
  Probe.run_engine p engine;
  let digest = ref Paradice.Fleet.digest_empty and completions = ref 0 in
  let round () =
    Array.iteri
      (fun i (env, rng, slot) ->
        match !slot with
        | None -> Probe.check p ~what:(Printf.sprintf "guest %d never opened" i) false
        | Some (task, fd) ->
            Sim.Engine.spawn engine (fun () ->
                for _ = 1 to ops_per_guest do
                  Sim.Engine.wait (Sim.Rng.float rng think_us);
                  (match Probe.ioctl p env task fd ~cmd:M.null_ioctl ~arg:0L with
                  | Ok 0 -> incr completions
                  | Ok rc -> Probe.bad_op p (Printf.sprintf "g%d: noop ioctl returned %d" i rc)
                  | Error _ -> ());
                  digest :=
                    Paradice.Fleet.digest_mix_float
                      (Paradice.Fleet.digest_mix !digest (Int64.of_int i))
                      (Sim.Engine.now engine)
                done))
      clients
  in
  ready ();
  round ();
  Probe.run_engine p engine;
  { machine = m; round; result = (fun () -> Digest !digest); completed = (fun () -> !completions) }

let workload =
  {
    name = "fleet";
    unit_name = "op";
    units_per_round = guests * ops_per_guest;
    reps = 7;
    config = Paradice.Config.default;
    build;
    reference = None;
    paper = "no paper figure: one host serving 208 guests";
  }
