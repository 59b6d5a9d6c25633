(* Cross-cutting property tests: invariants that tie layers together. *)

let prop_analyzer_offline_matches_runtime =
  (* For statically-classified handlers, executing the extracted slice
     at runtime must produce exactly the offline-resolved operations —
     the two §4.1 paths agree wherever both apply. *)
  QCheck.Test.make ~name:"static entries == runtime slice evaluation" ~count:200
    QCheck.(pair (int_bound 0xffffff) (int_range 1 4096))
    (fun (arg, size) ->
      let handler =
        {
          Analyzer.Ir.cmd = Oskit.Ioctl_num.iowr ~typ:'z' ~nr:7 ~size:(size land 0x3fff);
          handler_name = "synthetic";
          uses_macro = true;
          body =
            [
              Analyzer.Ir.Copy_from_user
                { dst_buf = "req"; src = Analyzer.Ir.Arg; len = Analyzer.Ir.Const size };
              Analyzer.Ir.Hw_op "work";
              Analyzer.Ir.Copy_to_user
                { dst = Analyzer.Ir.Add (Analyzer.Ir.Arg, Analyzer.Ir.Const 8);
                  src_buf = "req"; len = Analyzer.Ir.Const (size / 2) };
            ];
        }
      in
      let slice = Analyzer.Slice.of_handler handler in
      let offline =
        List.map (Analyzer.Extract.resolve_op ~arg) (Analyzer.Extract.offline_eval slice)
      in
      let runtime =
        Analyzer.Extract.runtime_eval slice ~arg ~read_user:(fun ~addr:_ ~len ->
            Bytes.create len)
      in
      offline = runtime)

let prop_grant_table_lifecycle =
  (* declare/release in random interleavings: the table never leaks
     slots, and after releasing everything it accepts a full-capacity
     group again. *)
  QCheck.Test.make ~name:"grant table never leaks slots" ~count:100
    QCheck.(list_of_size QCheck.Gen.(1 -- 30) (int_range 1 4))
    (fun group_sizes ->
      let phys = Memory.Phys_mem.create () in
      let hyp = Hypervisor.Hyp.create phys in
      let vm =
        Hypervisor.Hyp.create_vm hyp ~name:"g" ~kind:Hypervisor.Vm.Guest
          ~mem_bytes:(1024 * 1024)
      in
      let table = Hypervisor.Hyp.setup_grant_table hyp vm in
      let refs =
        List.map
          (fun n ->
            Hypervisor.Grant_table.declare table
              (List.init n (fun i ->
                   Hypervisor.Grant_table.Copy_to_user { addr = i * 64; len = 64 })))
          group_sizes
      in
      List.iter (Hypervisor.Grant_table.release table) refs;
      (* full capacity must be available again *)
      let big =
        List.init Hypervisor.Grant_table.capacity (fun i ->
            Hypervisor.Grant_table.Copy_from_user { addr = i; len = 1 })
      in
      let r = Hypervisor.Grant_table.declare table big in
      Hypervisor.Grant_table.release table r;
      true)

let prop_evdev_event_roundtrip =
  QCheck.Test.make ~name:"evdev events round-trip the wire format" ~count:300
    QCheck.(quad (int_bound 0xffffff) (int_bound 3) (int_bound 0xffff) (int_range (-128) 127))
    (fun (time, ty, code, value) ->
      let e =
        {
          Devices.Evdev.time_us = float_of_int time;
          ev_type = ty;
          code;
          value;
        }
      in
      let decoded = Devices.Evdev.decode_event (Devices.Evdev.encode_event e) 0 in
      decoded.Devices.Evdev.ev_type = ty
      && decoded.Devices.Evdev.code = code
      && decoded.Devices.Evdev.value = value)

let test_netmap_wire_time () =
  let eng = Sim.Engine.create () in
  let phys = Memory.Phys_mem.create () in
  let hyp = Hypervisor.Hyp.create phys in
  let vm = Hypervisor.Hyp.create_vm hyp ~name:"v" ~kind:Hypervisor.Vm.Driver ~mem_bytes:(16 * 1024 * 1024) in
  let kernel = Oskit.Kernel.create ~engine:eng ~vm ~flavor:Oskit.Os_flavor.Linux_3_2_0 () in
  let iommu = Memory.Iommu.create ~name:"nic" in
  let nm = Devices.Netmap_drv.create kernel ~iommu () in
  (* 64-byte frame + 20 bytes preamble/IFG at 1 Gb/s = 672 ns *)
  Alcotest.(check (float 1e-9)) "64B wire time" 0.672
    (Devices.Netmap_drv.wire_time_us nm ~len:64);
  (* 1.488 Mpps line rate falls out *)
  Alcotest.(check bool) "line rate ~1.488 Mpps" true
    (abs_float ((1. /. Devices.Netmap_drv.wire_time_us nm ~len:64) -. 1.488) < 0.001)

let test_timeunit () =
  Alcotest.(check (float 1e-9)) "ms" 2_000. (Sim.Timeunit.ms 2.);
  Alcotest.(check (float 1e-9)) "sec" 3_000_000. (Sim.Timeunit.sec 3.);
  Alcotest.(check (float 1e-9)) "ns" 0.5 (Sim.Timeunit.ns 500.);
  Alcotest.(check (float 1e-9)) "to_sec" 1.5 (Sim.Timeunit.to_sec 1_500_000.)

let test_engine_at_ordering () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.at eng ~delay:5. (fun () -> log := "b" :: !log);
  Sim.Engine.at eng ~delay:1. (fun () -> log := "a" :: !log);
  Sim.Engine.at eng ~delay:5. (fun () -> log := "c" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "callbacks in time/insertion order" [ "a"; "b"; "c" ]
    (List.rev !log)

let prop_radix_set_perms_preserves_mapping =
  QCheck.Test.make ~name:"set_perms changes permissions, not targets" ~count:200
    QCheck.(list_of_size QCheck.Gen.(1 -- 20) (int_bound 5000))
    (fun vfns ->
      let t = Memory.Radix_table.create ~widths:[ 9; 9; 9 ] in
      List.iter
        (fun vfn -> Memory.Radix_table.map t ~vfn ~pfn:(vfn + 42) ~perms:Memory.Perm.rwx)
        vfns;
      List.iter
        (fun vfn -> Memory.Radix_table.set_perms t ~vfn ~perms:Memory.Perm.none)
        vfns;
      List.for_all
        (fun vfn ->
          match Memory.Radix_table.lookup t vfn with
          | Some leaf ->
              leaf.Memory.Radix_table.target_pfn = vfn + 42
              && Memory.Perm.equal leaf.Memory.Radix_table.perms Memory.Perm.none
          | None -> false)
        vfns)

let prop_allocator_range_disjoint =
  QCheck.Test.make ~name:"allocated ranges never overlap" ~count:100
    QCheck.(list_of_size QCheck.Gen.(1 -- 10) (int_range 1 8))
    (fun sizes ->
      let a = Memory.Allocator.create ~base:0 ~size:(1024 * Memory.Addr.page_size) in
      let ranges =
        List.map (fun n -> (Memory.Allocator.alloc_range a n, n)) sizes
      in
      let pages =
        List.concat_map
          (fun (base, n) -> List.init n (fun i -> Memory.Addr.pfn base + i))
          ranges
      in
      List.length pages = List.length (List.sort_uniq compare pages))

let prop_ioctl_num_roundtrip =
  QCheck.Test.make ~name:"_IOC fields round-trip" ~count:300
    QCheck.(quad (int_bound 3) (int_range 0 255) (int_range 0 255) (int_bound 16383))
    (fun (d, ty, nr, size) ->
      let dir = Oskit.Ioctl_num.(match d with 0 -> None_ | 1 -> Write | 2 -> Read | _ -> Read_write) in
      let cmd = Oskit.Ioctl_num.ioc ~dir ~typ:(Char.chr ty) ~nr ~size in
      Oskit.Ioctl_num.dir cmd = dir
      && Oskit.Ioctl_num.typ cmd = Char.chr ty
      && Oskit.Ioctl_num.nr cmd = nr
      && Oskit.Ioctl_num.size cmd = size)

(* ---- engine ordering: the two-tier event queue against one heap ---- *)

(* The engine's observable order is [(time, seq)] over one queue.  The
   reference below keeps exactly that — one ordered map, every event
   in it — and random programs must run identically on both. *)
module type ENGINE = sig
  type t

  val create : unit -> t
  val now : t -> float
  val at : t -> delay:float -> (unit -> unit) -> unit
  val spawn : t -> ?name:string -> (unit -> unit) -> unit
  val run : ?until:float -> t -> unit
  val wait : float -> unit
  val suspend : ((unit -> unit) -> unit) -> unit
end

module Ref_engine : ENGINE = struct
  module Q = Map.Make (struct
    type t = float * int

    let compare (t1, s1) (t2, s2) =
      match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
  end)

  type t = { mutable now : float; mutable seq : int; mutable q : (unit -> unit) Q.t }

  type _ Effect.t +=
    | R_wait : float -> unit Effect.t
    | R_suspend : ((unit -> unit) -> unit) -> unit Effect.t

  let create () = { now = 0.; seq = 0; q = Q.empty }
  let now t = t.now

  let push t time f =
    t.q <- Q.add (time, t.seq) f t.q;
    t.seq <- t.seq + 1

  let at t ~delay f = push t (t.now +. delay) f

  let handler t =
    let open Effect.Deep in
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | R_wait d ->
              Some
                (fun (k : (a, unit) continuation) ->
                  push t (t.now +. d) (fun () -> continue k ()))
          | R_suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let resumed = ref false in
                  register (fun () ->
                      if not !resumed then begin
                        resumed := true;
                        push t t.now (fun () -> continue k ())
                      end))
          | _ -> None);
    }

  let spawn t ?name f =
    ignore name;
    push t t.now (fun () -> Effect.Deep.match_with f () (handler t))

  let rec run ?until t =
    match Q.min_binding_opt t.q with
    | None -> ()
    | Some ((time, _), _) when (match until with Some l -> time > l | None -> false) ->
        t.now <- Option.get until
    | Some ((time, _) as key, f) ->
        t.q <- Q.remove key t.q;
        if time > t.now then t.now <- time;
        f ();
        run ?until t

  let wait d = Effect.perform (R_wait d)
  let suspend register = Effect.perform (R_suspend register)
end

type instr =
  | Log
  | Wait of float
  | At of float  (** a callback that logs and wakes the oldest parked process *)
  | Spawn of instr list
  | Park  (** suspend until woken *)
  | Wake  (** wake the oldest parked process, twice (the second is ignored) *)

type phase = { spawns : instr list list; until : float option }

(* Delays that matter: zero, one that rounds away against a clock at
   1e6 (1e6 +. 1e-12 = 1e6), ties, and plain future times. *)
let gen_delay = QCheck.Gen.oneofl [ 0.; 1e-12; 0.5; 1.; 1.; 2.5; 1e6 ]

let gen_prog =
  let open QCheck.Gen in
  let rec prog depth =
    list_size (0 -- 6)
      (frequency
         ([
            (2, return Log);
            (3, map (fun d -> Wait d) gen_delay);
            (2, map (fun d -> At d) gen_delay);
            (2, return Park);
            (2, return Wake);
          ]
         @ if depth = 0 then [] else [ (1, map (fun p -> Spawn p) (prog (depth - 1))) ]))
  in
  prog 2

let gen_phases =
  let open QCheck.Gen in
  list_size (1 -- 4)
    (map2
       (fun spawns until -> { spawns; until })
       (list_size (0 -- 3) gen_prog)
       (opt (oneofl [ 0.; 0.5; 1.; 3.; 1e6; 1e6 +. 1.; 2e6 ])))

let rec pp_prog p =
  "["
  ^ String.concat ";"
      (List.map
         (function
           | Log -> "log"
           | Wait d -> Printf.sprintf "wait %g" d
           | At d -> Printf.sprintf "at %g" d
           | Spawn p -> "spawn " ^ pp_prog p
           | Park -> "park"
           | Wake -> "wake")
         p)
  ^ "]"

let pp_phases phases =
  String.concat " | "
    (List.map
       (fun ph ->
         String.concat " " (List.map pp_prog ph.spawns)
         ^ match ph.until with Some u -> Printf.sprintf " run~until:%g" u | None -> " run")
       phases)

(* Run [phases] (spawns from outside, then [run ?until]); returns the
   log of [(process, step, time)] and the final clock. *)
module Interp (E : ENGINE) = struct
  let exec phases =
    let e = E.create () in
    let log = ref [] and next_pid = ref 0 in
    let parked = Queue.create () in
    let wake () =
      match Queue.take_opt parked with
      | Some w ->
          w ();
          w ()
      | None -> ()
    in
    let rec start prog =
      let pid = !next_pid in
      incr next_pid;
      E.spawn e (fun () ->
          List.iteri
            (fun step instr ->
              let note () = log := (pid, step, E.now e) :: !log in
              match instr with
              | Log -> note ()
              | Wait d -> E.wait d
              | At d ->
                  E.at e ~delay:d (fun () ->
                      note ();
                      wake ())
              | Spawn p -> start p
              | Park -> E.suspend (fun w -> Queue.add w parked)
              | Wake -> wake ())
            prog;
          log := (pid, -1, E.now e) :: !log)
    in
    List.iter
      (fun ph ->
        List.iter start ph.spawns;
        E.run ?until:ph.until e)
      phases;
    E.run e;
    (List.rev !log, E.now e)
end

module Run_sim = Interp (Sim.Engine)
module Run_ref = Interp (Ref_engine)

let prop_engine_matches_single_heap =
  QCheck.Test.make ~name:"two-tier engine runs in single-heap (time, seq) order" ~count:500
    (QCheck.make ~print:pp_phases
       QCheck.Gen.(
         map2
           (fun head phases ->
             (* a clock at 1e6 first, so 1e-12 delays round away *)
             { spawns = [ Wait 1e6 :: head ]; until = None } :: phases)
           gen_prog gen_phases))
    (fun phases -> Run_sim.exec phases = Run_ref.exec phases)

let suites =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest prop_analyzer_offline_matches_runtime;
        QCheck_alcotest.to_alcotest prop_grant_table_lifecycle;
        QCheck_alcotest.to_alcotest prop_evdev_event_roundtrip;
        QCheck_alcotest.to_alcotest prop_radix_set_perms_preserves_mapping;
        QCheck_alcotest.to_alcotest prop_allocator_range_disjoint;
        QCheck_alcotest.to_alcotest prop_ioctl_num_roundtrip;
        QCheck_alcotest.to_alcotest prop_engine_matches_single_heap;
        Alcotest.test_case "netmap wire time" `Quick test_netmap_wire_time;
        Alcotest.test_case "time units" `Quick test_timeunit;
        Alcotest.test_case "engine callback ordering" `Quick test_engine_at_ordering;
      ] );
  ]
