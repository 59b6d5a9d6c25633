(* Tests for the workload models and baseline setups: the paper's
   qualitative performance relations must hold in every run. *)

open Baselines

let noop_of mode =
  let _m, env = Setup.make ~devices:[ Setup.Null ] mode in
  Workloads.Noop_bench.run env ~ops:200 ()

let test_noop_ordering () =
  let native = noop_of Setup.Native in
  let da = noop_of Setup.Device_assign in
  let paradice = noop_of (Setup.Paradice Paradice.Config.default) in
  let polling = noop_of (Setup.Paradice Paradice.Config.polling) in
  Alcotest.(check bool) "native ~= device assignment" true
    (abs_float (native -. da) < 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "interrupts ~35us (got %.2f)" paradice)
    true
    (paradice > 33. && paradice < 37.);
  Alcotest.(check bool)
    (Printf.sprintf "polling ~2us (got %.2f)" polling)
    true
    (polling > 1.5 && polling < 3.);
  Alcotest.(check bool) "native << polling << interrupts" true
    (native < polling && polling < paradice)

let netmap_rate mode ~batch =
  let _m, env = Setup.make ~devices:[ Setup.Netmap ] mode in
  (Workloads.Netmap_pktgen.run env ~packets:4000 ~batch ()).Workloads.Netmap_pktgen.rate_mpps

(* The hypervisor's TLB counters for 20 000 netmap packets at batch 8.
   The driver's ring words go through a frame-cached shared-page view
   whose cached accesses count as TLB hits, so these figures change
   only if the number of guest memory accesses or the caching argument
   does. *)
let netmap_tlb_counters config =
  let m, env = Setup.make ~devices:[ Setup.Netmap ] (Setup.Paradice config) in
  let (_ : Workloads.Netmap_pktgen.result) =
    Workloads.Netmap_pktgen.run env ~packets:20_000 ~batch:8 ()
  in
  let audit = Hypervisor.Hyp.audit (Paradice.Machine.hyp m) in
  Hypervisor.Audit.
    (Printf.sprintf "tlb_hits=%d tlb_misses=%d walks=%d" (tlb_hits audit) (tlb_misses audit)
       (walks_performed audit))

let test_netmap_tlb_counters () =
  Alcotest.(check string) "hybrid" "tlb_hits=241305 tlb_misses=35 walks=39"
    (netmap_tlb_counters Paradice.Config.hybrid);
  Alcotest.(check string) "interrupts" "tlb_hits=160261 tlb_misses=35 walks=39"
    (netmap_tlb_counters Paradice.Config.default)

let test_netmap_batching_shape () =
  (* Figure 2's shape: rate grows with batch; polling catches native by
     batch 4-8; interrupts need much larger batches. *)
  let native1 = netmap_rate Setup.Native ~batch:1 in
  Alcotest.(check bool) "native near line rate even at batch 1" true (native1 > 1.4);
  let int_rate = List.map (fun b -> netmap_rate (Setup.Paradice Paradice.Config.default) ~batch:b) [ 1; 16; 64; 256 ] in
  (match int_rate with
  | [ r1; r16; r64; r256 ] ->
      Alcotest.(check bool) "interrupts: monotone growth" true (r1 < r16 && r16 < r64);
      Alcotest.(check bool) "interrupts: tiny at batch 1" true (r1 < 0.1);
      Alcotest.(check bool) "interrupts: near line rate at 64+" true
        (r64 > 1.35 && r256 > 1.35)
  | _ -> Alcotest.fail "unreachable");
  let pol4 = netmap_rate (Setup.Paradice Paradice.Config.polling) ~batch:4 in
  Alcotest.(check bool)
    (Printf.sprintf "polling at batch 4 within 20%% of native (got %.2f)" pol4)
    true
    (pol4 > 0.8 *. netmap_rate Setup.Native ~batch:4)

let test_netmap_freebsd_equals_linux () =
  let fl = netmap_rate (Setup.Paradice_freebsd Paradice.Config.default) ~batch:64 in
  let lin = netmap_rate (Setup.Paradice Paradice.Config.default) ~batch:64 in
  Alcotest.(check bool) "FreeBSD guest within 5% of Linux guest" true
    (abs_float (fl -. lin) /. lin < 0.05)

let gfx_fps mode profile =
  let _m, env = Setup.make ~devices:[ Setup.Gpu ] mode in
  Workloads.Gfx.run env ~profile ~width:1024 ~height:768 ~frames:20 ()

let test_gfx_relations () =
  let native = gfx_fps Setup.Native Workloads.Gfx.vbo in
  let paradice = gfx_fps (Setup.Paradice Paradice.Config.default) Workloads.Gfx.vbo in
  let polling = gfx_fps (Setup.Paradice Paradice.Config.polling) Workloads.Gfx.vbo in
  Alcotest.(check bool) "paradice below native" true (paradice < native);
  Alcotest.(check bool) "polling closes most of the gap" true
    (native -. polling < 0.4 *. (native -. paradice));
  Alcotest.(check bool) "interrupt drop under 15% for VBO" true
    (paradice > 0.85 *. native)

let test_games_less_sensitive_than_microbench () =
  (* §6.1.3: constant per-op overhead means demanding games lose a
     smaller FPS fraction than cheap microbenchmark frames. *)
  let rel profile =
    let native = gfx_fps Setup.Native profile in
    let paradice = gfx_fps (Setup.Paradice Paradice.Config.default) profile in
    (native -. paradice) /. native
  in
  let drop_game = rel Workloads.Gfx.tremulous in
  let drop_micro = rel Workloads.Gfx.vertex_array in
  Alcotest.(check bool)
    (Printf.sprintf "game drop (%.3f) < microbench drop (%.3f)" drop_game drop_micro)
    true (drop_game < drop_micro)

let test_game_fps_falls_with_resolution () =
  let _m, env = Setup.make ~devices:[ Setup.Gpu ] Setup.Native in
  let fps_low =
    Workloads.Gfx.run env ~profile:Workloads.Gfx.tremulous ~width:800 ~height:600
      ~frames:15 ()
  in
  let _m2, env2 = Setup.make ~devices:[ Setup.Gpu ] Setup.Native in
  let fps_high =
    Workloads.Gfx.run env2 ~profile:Workloads.Gfx.tremulous ~width:1680 ~height:1050
      ~frames:15 ()
  in
  Alcotest.(check bool) "higher resolution, lower FPS" true (fps_high < fps_low);
  Alcotest.(check bool)
    (Printf.sprintf "800x600 near 70 FPS (got %.1f)" fps_low)
    true
    (fps_low > 60. && fps_low < 80.)

let matmul mode ~order =
  let _m, env = Setup.make ~devices:[ Setup.Gpu ] mode in
  Workloads.Opencl_matmul.run env ~order ()

let test_matmul_scaling_and_parity () =
  let t100 = matmul Setup.Native ~order:100 in
  let t500 = matmul Setup.Native ~order:500 in
  Alcotest.(check bool) "O(n^3) growth dominates at large orders" true
    (t500 > 20. *. t100);
  let p500 = matmul (Setup.Paradice Paradice.Config.default) ~order:500 in
  Alcotest.(check bool) "paradice within 1% of native at order 500" true
    (abs_float (p500 -. t500) /. t500 < 0.01);
  let di500 =
    matmul (Setup.Paradice (Paradice.Config.with_data_isolation Paradice.Config.default))
      ~order:500
  in
  Alcotest.(check bool) "data isolation within 1% too" true
    (abs_float (di500 -. t500) /. t500 < 0.01)

let test_matmul_verified_small_order () =
  (* end-to-end correctness of the compute path under Paradice *)
  let _m, env = Setup.make ~devices:[ Setup.Gpu ] (Setup.Paradice Paradice.Config.default) in
  let t = Workloads.Opencl_matmul.run env ~verify:true ~order:8 () in
  Alcotest.(check bool) "verified run completes" true (t > 0.)

let test_fig6_linear_scaling () =
  let times n =
    let machine, _env =
      Setup.make ~devices:[ Setup.Gpu ] ~extra_guests:(n - 1)
        (Setup.Paradice Paradice.Config.default)
    in
    let guests = Paradice.Machine.guests machine in
    Workloads.Opencl_matmul.run_concurrent machine ~guests ~order:100 ~reps:2
  in
  (* linearity applies to the shared resource (GPU time); the fixed
     OpenCL runtime setup runs concurrently in each guest *)
  let setup_s = Workloads.Opencl_matmul.runtime_setup_us /. 1_000_000. in
  let gpu_time t = t -. setup_s in
  let t1 = gpu_time (times 1).(0) in
  let t3 = times 3 in
  Array.iter
    (fun t ->
      let t = gpu_time t in
      Alcotest.(check bool)
        (Printf.sprintf "3 guests ~3x one guest (%.2f vs %.2f)" t t1)
        true
        (t > 2.5 *. t1 && t < 3.5 *. t1))
    t3

let test_mouse_latency_ordering () =
  let lat mode =
    let _m, env = Setup.make ~devices:[ Setup.Mouse ] mode in
    Workloads.Mouse_latency.run env ~moves:10 ()
  in
  let native = lat Setup.Native in
  let da = lat Setup.Device_assign in
  let par = lat (Setup.Paradice Paradice.Config.default) in
  let pol = lat (Setup.Paradice Paradice.Config.polling) in
  Alcotest.(check bool) (Printf.sprintf "native ~39us (got %.1f)" native) true
    (native > 35. && native < 43.);
  Alcotest.(check bool) (Printf.sprintf "DA ~55us (got %.1f)" da) true
    (da > 50. && da < 60.);
  Alcotest.(check bool) (Printf.sprintf "interrupts ~296us (got %.1f)" par) true
    (par > 270. && par < 320.);
  Alcotest.(check bool) (Printf.sprintf "polling ~179us (got %.1f)" pol) true
    (pol > 160. && pol < 200.);
  Alcotest.(check bool) "all well below the 1ms perception threshold" true
    (par < 1000.)

let test_camera_fps_uniform () =
  List.iter
    (fun mode ->
      let _m, env = Setup.make ~devices:[ Setup.Camera ] mode in
      let fps = Workloads.Camera_app.run env ~width:1920 ~height:1080 ~frames:10 () in
      Alcotest.(check bool)
        (Printf.sprintf "%s camera ~29.5 FPS (got %.1f)" (Setup.mode_label mode) fps)
        true
        (fps > 28. && fps < 31.))
    [ Setup.Native; Setup.Device_assign; Setup.Paradice Paradice.Config.default ]

let test_audio_realtime_everywhere () =
  List.iter
    (fun mode ->
      let _m, env = Setup.make ~devices:[ Setup.Audio ] mode in
      let t = Workloads.Audio_app.run env ~seconds:0.5 () in
      Alcotest.(check bool)
        (Printf.sprintf "%s playback ~0.5s (got %.3f)" (Setup.mode_label mode) t)
        true
        (t >= 0.49 && t < 0.56))
    [ Setup.Native; Setup.Device_assign; Setup.Paradice Paradice.Config.default ]

(* baselines for Table 3 *)

let test_emulation_slow () =
  let emu = Emulation.make () in
  let lat = Workloads.Noop_bench.run (Emulation.env emu) ~ops:200 () in
  Alcotest.(check bool) (Printf.sprintf "emulation ~55us (got %.1f)" lat) true
    (lat > 50. && lat < 60.)

let test_self_virt_vf_budget () =
  let sv = Self_virt.make () in
  for _ = 1 to Self_virt.max_vfs do
    ignore (Self_virt.assign_vf sv)
  done;
  Alcotest.check_raises "VFs exhausted" Self_virt.No_vf_available (fun () ->
      ignore (Self_virt.assign_vf sv))

let test_strategy_matrix () =
  Alcotest.(check int) "five strategies" 5 (List.length Strategy.all);
  let p = Strategy.paradice in
  Alcotest.(check bool) "paradice has every property" true
    (p.Strategy.high_performance && p.Strategy.low_development_effort
    && p.Strategy.device_sharing = `Yes && p.Strategy.legacy_devices);
  Alcotest.(check bool) "every other strategy lacks something" true
    (List.for_all
       (fun (c : Strategy.capabilities) ->
         c.Strategy.strategy = "Paradice"
         || not
              (c.Strategy.high_performance && c.Strategy.low_development_effort
              && c.Strategy.device_sharing = `Yes && c.Strategy.legacy_devices))
       Strategy.all)

let suites =
  [
    ( "workloads.noop",
      [ Alcotest.test_case "latency ordering" `Quick test_noop_ordering ] );
    ( "workloads.netmap",
      [
        Alcotest.test_case "batching shape (fig2)" `Quick test_netmap_batching_shape;
        Alcotest.test_case "freebsd ~= linux" `Quick test_netmap_freebsd_equals_linux;
        Alcotest.test_case "TLB counters, 20k packets at batch 8" `Quick
          test_netmap_tlb_counters;
      ] );
    ( "workloads.gfx",
      [
        Alcotest.test_case "mode relations (fig3)" `Quick test_gfx_relations;
        Alcotest.test_case "games less sensitive (fig4)" `Quick test_games_less_sensitive_than_microbench;
        Alcotest.test_case "fps falls with resolution" `Quick test_game_fps_falls_with_resolution;
      ] );
    ( "workloads.opencl",
      [
        Alcotest.test_case "scaling and parity (fig5)" `Quick test_matmul_scaling_and_parity;
        Alcotest.test_case "verified small order" `Quick test_matmul_verified_small_order;
        Alcotest.test_case "linear concurrency (fig6)" `Quick test_fig6_linear_scaling;
      ] );
    ( "workloads.latency",
      [
        Alcotest.test_case "mouse ordering (6.1.5)" `Quick test_mouse_latency_ordering;
        Alcotest.test_case "camera uniform fps (6.1.6)" `Quick test_camera_fps_uniform;
        Alcotest.test_case "audio realtime (6.1.6)" `Quick test_audio_realtime_everywhere;
      ] );
    ( "baselines",
      [
        Alcotest.test_case "emulation slow" `Quick test_emulation_slow;
        Alcotest.test_case "self-virt vf budget" `Quick test_self_virt_vf_budget;
        Alcotest.test_case "strategy matrix (table 3)" `Quick test_strategy_matrix;
      ] );
  ]
