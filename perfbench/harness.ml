(* What a workload gives the benchmark. *)

(* The simulated result of one round: a latency or rate from the
   simulated clock, or a completion digest. *)
type result = Sim_value of float | Digest of int64

let same a b =
  match (a, b) with
  | Sim_value x, Sim_value y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Digest x, Digest y -> Int64.equal x y
  | _ -> false

let show = function
  | Sim_value x -> Printf.sprintf "%.6f" x
  | Digest d -> Printf.sprintf "digest %016Lx" d

(* A built machine whose clients have completed their first round. *)
type inst = {
  machine : Paradice.Machine.t;
  round : unit -> unit;  (** spawn one round of client work; the caller runs the engine *)
  result : unit -> result;  (** simulated result of the last round *)
  completed : unit -> int;  (** work units the clients saw complete, all rounds *)
}

type workload = {
  name : string;
  unit_name : string;  (** what one work unit is: op, frame or packet *)
  units_per_round : int;
  reps : int;  (** machines built per run; setup_s is their median *)
  config : Paradice.Config.t;
  build : Probe.t -> config:Paradice.Config.t -> seed:int64 -> ready:(unit -> unit) -> inst;
      (** set up, call [ready] the moment set-up ends, then run the
          first round; single-client workloads run it in the same
          simulated process, as the experiment code does *)
  reference : (string * (unit -> result)) option;
      (** the existing experiment code's result for one round, which
          every first round must equal bit for bit *)
  paper : string;  (** the paper's figure for comparison *)
}

module M = Paradice.Machine
module R = Workloads.Runner

(* Machine assembly in the order [Baselines.Setup.make] uses, with each
   layer call timed. *)
let build_machine p ~config ?driver_mem_mib ~attach ~guests () =
  let m =
    Probe.setup_call p "machine.create" (fun () ->
        M.create ~mode:M.Paradice ~config ?driver_mem_mib ())
  in
  let sim () = Sim.Engine.now (M.engine m) in
  let attached = Probe.setup_call p ~sim "machine.attach" (fun () -> attach m) in
  let added =
    List.map
      (fun (name, mem_mib) ->
        Probe.setup_call p ~sim "machine.add_guest" (fun () ->
            M.add_guest m ~name ?mem_mib ()))
      guests
  in
  (m, attached, added)
