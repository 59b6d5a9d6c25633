(* Every table and figure of the paper's evaluation (§6), regenerated
   against the simulated substrate.  Absolute numbers come from the
   calibrated cost model (see Paradice.Config and DESIGN.md); the
   comparisons and crossovers are the reproduced result. *)

open Baselines

(* scale factor: CLI can shrink run lengths for quick smoke runs *)
let scale = ref 1.0

let scaled n = max 1 (int_of_float (float_of_int n *. !scale))

(* ------------------------------------------------------------------ *)
(* §6.1.1: no-op file operation latency                                *)
(* ------------------------------------------------------------------ *)

let noop () =
  Report.heading "§6.1.1 — No-op file operation latency";
  let measure mode =
    let _machine, env = Setup.make ~devices:[ Setup.Null ] mode in
    Workloads.Noop_bench.run env ~ops:(scaled 2000) ()
  in
  let rows =
    List.map
      (fun mode ->
        let avg = measure mode in
        [ Setup.mode_label mode; Report.f2 avg ])
      [
        Setup.Native; Setup.Device_assign;
        Setup.Paradice Paradice.Config.default;
        Setup.Paradice Paradice.Config.polling;
      ]
  in
  Report.table ~header:[ "config"; "added latency (us/op)" ] rows;
  Report.note "paper: ~35us with interrupts (two inter-VM interrupts), ~2us with polling"

(* ------------------------------------------------------------------ *)
(* Figure 2: netmap transmit rate vs batch size                        *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  Report.heading "Figure 2 — netmap TX rate (Mpps), 64-byte packets";
  let batches = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ] in
  let modes =
    [
      Setup.Native; Setup.Device_assign;
      Setup.Paradice Paradice.Config.default;
      Setup.Paradice_freebsd Paradice.Config.default;
      Setup.Paradice Paradice.Config.polling;
    ]
  in
  let packets = scaled 20_000 in
  let rows =
    List.map
      (fun batch ->
        string_of_int batch
        :: List.map
             (fun mode ->
               let _m, env = Setup.make ~devices:[ Setup.Netmap ] mode in
               let r = Workloads.Netmap_pktgen.run env ~packets ~batch () in
               Report.f3 r.Workloads.Netmap_pktgen.rate_mpps)
             modes)
      batches
  in
  Report.table
    ~header:("batch" :: List.map Setup.mode_label modes)
    rows;
  Report.note "line rate at 64B on 1GbE = 1.488 Mpps";
  Report.note
    "paper: native/DA at line rate from small batches; Paradice(P) joins at batch >= 4;";
  Report.note
    "       Paradice with interrupts needs batch ~30-64; FreeBSD guest ~= Linux guest"

(* ------------------------------------------------------------------ *)
(* Figure 3: OpenGL microbenchmarks                                    *)
(* ------------------------------------------------------------------ *)

let gfx_modes =
  [
    Setup.Native; Setup.Device_assign;
    Setup.Paradice Paradice.Config.default;
    Setup.Paradice Paradice.Config.polling;
  ]

let fig3 () =
  Report.heading "Figure 3 — OpenGL benchmarks (FPS, fullscreen teapot)";
  let frames = scaled 60 in
  let rows =
    List.map
      (fun profile ->
        profile.Workloads.Gfx.name
        :: List.map
             (fun mode ->
               let _m, env = Setup.make ~devices:[ Setup.Gpu ] mode in
               let fps =
                 Workloads.Gfx.run env ~profile ~width:1024 ~height:768 ~frames ()
               in
               Report.f1 fps)
             gfx_modes)
      Workloads.Gfx.opengl_benchmarks
  in
  Report.table ~header:("benchmark" :: List.map Setup.mode_label gfx_modes) rows;
  Report.note
    "paper: Paradice(interrupts) visibly below native on these cheap frames;";
  Report.note "       Paradice(P) closes the gap to native"

(* ------------------------------------------------------------------ *)
(* Figure 4: 3D games at four resolutions                              *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  Report.heading "Figure 4 — 3D HD games (FPS) at different resolutions";
  let modes =
    [
      Setup.Native; Setup.Device_assign;
      Setup.Paradice Paradice.Config.default;
      Setup.Paradice (Paradice.Config.with_data_isolation Paradice.Config.default);
    ]
  in
  let frames = scaled 40 in
  List.iter
    (fun game ->
      Printf.printf "\n  -- %s --\n" game.Workloads.Gfx.name;
      let rows =
        List.map
          (fun (w, h) ->
            Printf.sprintf "%dx%d" w h
            :: List.map
                 (fun mode ->
                   let _m, env = Setup.make ~devices:[ Setup.Gpu ] mode in
                   let fps = Workloads.Gfx.run env ~profile:game ~width:w ~height:h ~frames () in
                   Report.f1 fps)
                 modes)
          Workloads.Gfx.resolutions
      in
      Report.table ~header:("resolution" :: List.map Setup.mode_label modes) rows)
    Workloads.Gfx.games;
  Report.note "paper: Paradice close to native for demanding games;";
  Report.note "       data isolation (DI) has no noticeable impact"

(* ------------------------------------------------------------------ *)
(* Figure 5: OpenCL matrix multiplication                              *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  Report.heading "Figure 5 — OpenCL matmul experiment time (seconds)";
  let modes =
    [
      Setup.Native; Setup.Device_assign;
      Setup.Paradice Paradice.Config.default;
      Setup.Paradice (Paradice.Config.with_data_isolation Paradice.Config.default);
    ]
  in
  let orders = [ 1; 100; 500; 1000 ] in
  let rows =
    List.map
      (fun order ->
        string_of_int order
        :: List.map
             (fun mode ->
               let _m, env = Setup.make ~devices:[ Setup.Gpu ] mode in
               let t = Workloads.Opencl_matmul.run env ~order () in
               Report.f2 t)
             modes)
      orders
  in
  Report.table ~header:("matrix order" :: List.map Setup.mode_label modes) rows;
  Report.note "paper (log-log plot): all four configurations nearly identical;";
  Report.note "       experiment time dominated by the GPU itself at large orders"

(* ------------------------------------------------------------------ *)
(* Figure 6: concurrent guests on one GPU                              *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  Report.heading "Figure 6 — concurrent OpenCL (order 500) across guest VMs";
  let reps = scaled 5 in
  let rows =
    List.map
      (fun n_guests ->
        let machine, _env =
          Setup.make ~devices:[ Setup.Gpu ] ~extra_guests:(n_guests - 1)
            (Setup.Paradice Paradice.Config.default)
        in
        let guests = Paradice.Machine.guests machine in
        let times =
          Workloads.Opencl_matmul.run_concurrent machine ~guests ~order:500 ~reps
        in
        string_of_int n_guests
        :: List.init 3 (fun i ->
               if i < Array.length times then Report.f2 times.(i) else "-"))
      [ 1; 2; 3 ]
  in
  Report.table ~header:[ "# guest VMs"; "VM1 (s)"; "VM2 (s)"; "VM3 (s)" ] rows;
  Report.note "paper: experiment time grows ~linearly with the number of guests";
  Report.note "       (the GPU's processing time is shared)"

(* ------------------------------------------------------------------ *)
(* §6.1.5: mouse latency                                               *)
(* ------------------------------------------------------------------ *)

let mouse () =
  Report.heading "§6.1.5 — Mouse latency (event reported -> read reaches driver)";
  let rows =
    List.map
      (fun mode ->
        let _m, env = Setup.make ~devices:[ Setup.Mouse ] mode in
        let avg = Workloads.Mouse_latency.run env ~moves:(scaled 50) () in
        [ Setup.mode_label mode; Report.f1 avg ])
      [
        Setup.Native; Setup.Device_assign;
        Setup.Paradice Paradice.Config.default;
        Setup.Paradice Paradice.Config.polling;
      ]
  in
  Report.table ~header:[ "config"; "latency (us)" ] rows;
  Report.note "paper: native 39us, device assignment 55us,";
  Report.note "       Paradice 296us (interrupts), 179us (polling) -- all << 1ms"

(* ------------------------------------------------------------------ *)
(* §6.1.6: camera and speaker                                          *)
(* ------------------------------------------------------------------ *)

let camera () =
  Report.heading "§6.1.6 — Camera capture rate (FPS, MJPG)";
  let modes =
    [ Setup.Native; Setup.Device_assign; Setup.Paradice Paradice.Config.default ]
  in
  let rows =
    List.map
      (fun (w, h) ->
        Printf.sprintf "%dx%d" w h
        :: List.map
             (fun mode ->
               let _m, env = Setup.make ~devices:[ Setup.Camera ] mode in
               let fps = Workloads.Camera_app.run env ~width:w ~height:h ~frames:(scaled 20) () in
               Report.f1 fps)
             modes)
      [ (1280, 720); (1600, 896); (1920, 1080) ]
  in
  Report.table ~header:("resolution" :: List.map Setup.mode_label modes) rows;
  Report.note "paper: ~29.5 FPS at every resolution for all configurations"

let audio () =
  Report.heading "§6.1.6 — Audio playback time (1.0 s PCM file)";
  let rows =
    List.map
      (fun mode ->
        let _m, env = Setup.make ~devices:[ Setup.Audio ] mode in
        let t = Workloads.Audio_app.run env ~seconds:1.0 () in
        [ Setup.mode_label mode; Report.f3 t ])
      [ Setup.Native; Setup.Device_assign; Setup.Paradice Paradice.Config.default ]
  in
  Report.table ~header:[ "config"; "playback time (s)" ] rows;
  Report.note "paper: all configurations take the same time (same audio rate)"

(* ------------------------------------------------------------------ *)
(* Table 1: devices paravirtualized                                    *)
(* ------------------------------------------------------------------ *)

let table1 () =
  Report.heading "Table 1 — I/O devices paravirtualized by this prototype";
  Report.table
    ~header:[ "class"; "device model"; "driver"; "class-specific module" ]
    [
      [ "GPU"; "Radeon HD 6450 (Evergreen model)"; "DRM/Radeon"; "Device_info.gpu" ];
      [ "Input"; "Dell USB Mouse"; "evdev/usbmouse"; "Device_info.input" ];
      [ "Input"; "Dell USB Keyboard"; "evdev/usbkbd"; "Device_info.input" ];
      [ "Camera"; "Logitech HD Pro Webcam C920"; "V4L2/UVC"; "Device_info.camera" ];
      [ "Audio"; "Intel Panther Point HD Audio"; "PCM/snd-hda-intel"; "Device_info.audio" ];
      [ "Ethernet"; "Intel Gigabit (netmap)"; "netmap/e1000e"; "Device_info.ethernet" ];
    ];
  Report.note "paper: 5 classes, ~900 class-specific LoC of ~7700 total";
  Report.note "       (~400 of the class-specific lines are GPU data isolation)"

(* ------------------------------------------------------------------ *)
(* Table 2: code breakdown, measured from this repository              *)
(* ------------------------------------------------------------------ *)

let count_loc dir =
  (* non-blank, non-comment-only lines of .ml files under [dir] *)
  let rec files d =
    if Sys.is_directory d then
      Sys.readdir d |> Array.to_list
      |> List.concat_map (fun f -> files (Filename.concat d f))
    else if Filename.check_suffix d ".ml" then [ d ]
    else []
  in
  List.fold_left
    (fun acc file ->
      let ic = open_in file in
      let n = ref 0 in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if
             String.length line > 0
             && not (String.length line >= 2 && String.sub line 0 2 = "(*")
           then incr n
         done
       with End_of_file -> ());
      close_in ic;
      acc + !n)
    0 (files dir)

let table2 () =
  Report.heading "Table 2 — code breakdown (this repository, measured)";
  let root = "lib" in
  if Sys.file_exists root && Sys.is_directory root then begin
    let component label dir = [ label; dir; string_of_int (count_loc dir) ] in
    let rows =
      [
        component "CVD + machine (generic)" "lib/core";
        component "Hypervisor (generic)" "lib/hypervisor";
        component "Memory virtualization (generic)" "lib/memory";
        component "Kernel substrate (generic)" "lib/oskit";
        component "Simulation engine (generic)" "lib/sim";
        component "ioctl analyzer (generic)" "lib/analyzer";
        component "Device models + drivers" "lib/devices";
        component "Baselines" "lib/baselines";
        component "Workloads" "lib/workloads";
      ]
    in
    Report.table ~header:[ "component"; "directory"; "LoC" ] rows
  end
  else Report.note "run from the repository root to measure LoC";
  Report.note "paper: 7700 LoC total, 6833 generic, ~900 class-specific"

(* ------------------------------------------------------------------ *)
(* Table 3: I/O virtualization strategies                              *)
(* ------------------------------------------------------------------ *)

let table3 () =
  Report.heading "Table 3 — comparing I/O virtualization solutions";
  (* measured no-op latency per strategy, where implemented *)
  let direct_lat =
    let _m, env = Setup.make ~devices:[ Setup.Null ] Setup.Device_assign in
    Workloads.Noop_bench.run env ~ops:(scaled 1000) ()
  in
  let paradice_lat =
    let _m, env =
      Setup.make ~devices:[ Setup.Null ] (Setup.Paradice Paradice.Config.default)
    in
    Workloads.Noop_bench.run env ~ops:(scaled 1000) ()
  in
  let emu = Emulation.make () in
  let emu_lat = Workloads.Noop_bench.run (Emulation.env emu) ~ops:(scaled 1000) () in
  let sv = Self_virt.make () in
  let (_ : string) = Self_virt.assign_vf sv in
  let sv_env = Self_virt.env sv in
  let sv_lat =
    (* the VF device registers under its own path *)
    Workloads.Runner.run_to_completion sv_env (fun () ->
        let task = Workloads.Runner.spawn_app sv_env ~name:"noop" in
        let fd = Workloads.Runner.openf sv_env task "/dev/null-vf1" in
        let t0 = Workloads.Runner.now_us sv_env in
        let n = scaled 1000 in
        for _ = 1 to n do
          ignore
            (Workloads.Runner.ioctl sv_env task fd ~cmd:Paradice.Machine.null_ioctl ~arg:0L)
        done;
        (Workloads.Runner.now_us sv_env -. t0) /. float_of_int n)
  in
  let lat_of = function
    | "Emulation" -> Report.f1 emu_lat
    | "Direct I/O" -> Report.f1 direct_lat
    | "Self Virt." -> Report.f1 sv_lat
    | "Paradice" -> Report.f1 paradice_lat
    | _ -> "-"
  in
  let rows =
    List.map
      (fun (c : Strategy.capabilities) ->
        [
          c.Strategy.strategy;
          Strategy.yesno c.Strategy.high_performance;
          Strategy.yesno c.Strategy.low_development_effort;
          Strategy.sharing_string c.Strategy.device_sharing;
          Strategy.yesno c.Strategy.legacy_devices;
          lat_of c.Strategy.strategy;
        ])
      Strategy.all
  in
  Report.table
    ~header:
      [ "strategy"; "high perf"; "low dev effort"; "sharing"; "legacy"; "noop us (measured)" ]
    rows;
  Report.note "capability columns as in the paper's Table 3; latency measured here"

(* ------------------------------------------------------------------ *)
(* §4.1 / §5.3: the static analyzer                                    *)
(* ------------------------------------------------------------------ *)

let analyzer () =
  Report.heading "§4.1 — ioctl analyzer over the Radeon driver IR";
  let t_new = Analyzer.Extract.analyze Analyzer.Radeon_ir.driver_3_2_0 in
  let t_old = Analyzer.Extract.analyze Analyzer.Radeon_ir.driver_2_6_35 in
  Report.table ~header:[ "metric"; "2.6.35"; "3.2.0"; "paper (3.2)" ]
    [
      [ "handlers analyzed";
        string_of_int (t_old.Analyzer.Extract.static_count + t_old.Analyzer.Extract.jit_count);
        string_of_int (t_new.Analyzer.Extract.static_count + t_new.Analyzer.Extract.jit_count);
        "many" ];
      [ "static entries"; string_of_int t_old.Analyzer.Extract.static_count;
        string_of_int t_new.Analyzer.Extract.static_count; "-" ];
      [ "JIT (nested-copy) commands";
        string_of_int (List.length (Analyzer.Extract.nested_cmds t_old));
        string_of_int (List.length (Analyzer.Extract.nested_cmds t_new));
        "14" ];
      [ "extracted slice lines"; string_of_int t_old.Analyzer.Extract.extracted_lines;
        string_of_int t_new.Analyzer.Extract.extracted_lines; "~760" ];
    ];
  let stable =
    List.for_all
      (fun (h : Analyzer.Ir.handler) ->
        Analyzer.Extract.entry_for t_old h.Analyzer.Ir.cmd
        = Analyzer.Extract.entry_for t_new h.Analyzer.Ir.cmd)
      Analyzer.Radeon_ir.driver_2_6_35.Analyzer.Ir.handlers
  in
  Report.note "memory operations of common commands identical across versions: %b" stable;
  Report.note "paper: identical across 2.6.35 -> 3.2.0; four new commands to analyze"

(* ------------------------------------------------------------------ *)
(* Isolation demonstration + overhead                                  *)
(* ------------------------------------------------------------------ *)

let isolation () =
  Report.heading "§6 — isolation: attacks blocked, overhead measured";
  (* grant validation overhead on an ioctl with real memory operations
     (INFO: one copy in, one nested copy out) — checks on vs off *)
  let measure_info cfg =
    let _m, env = Setup.make ~devices:[ Setup.Gpu ] (Setup.Paradice cfg) in
    Workloads.Runner.run_to_completion env (fun () ->
        let task = Workloads.Runner.spawn_app env ~name:"bench" in
        let fd = Workloads.Gem.open_gpu env task in
        ignore (Workloads.Gem.query_info env task fd ~request:Devices.Radeon_ioctl.info_device_id);
        let n = scaled 500 in
        let t0 = Workloads.Runner.now_us env in
        for _ = 1 to n do
          ignore
            (Workloads.Gem.query_info env task fd
               ~request:Devices.Radeon_ioctl.info_device_id)
        done;
        (Workloads.Runner.now_us env -. t0) /. float_of_int n)
  in
  let with_checks = measure_info Paradice.Config.default in
  let without_checks =
    measure_info
      { Paradice.Config.default with Paradice.Config.validate_grants = false }
  in
  Report.table ~header:[ "configuration"; "INFO ioctl latency (us)" ]
    [
      [ "fault-isolation checks ON"; Report.f2 with_checks ];
      [ "fault-isolation checks OFF (ablation)"; Report.f2 without_checks ];
    ];
  (* attack suite against a data-isolated two-guest GPU machine *)
  let machine, _env =
    Setup.make ~devices:[ Setup.Gpu ] ~extra_guests:1
      (Setup.Paradice (Paradice.Config.with_data_isolation Paradice.Config.default))
  in
  let hyp = Paradice.Machine.hyp machine in
  let driver_vm = Oskit.Kernel.vm (Paradice.Machine.driver_kernel machine) in
  let guests = Paradice.Machine.guests machine in
  let g1 = List.nth guests 0 in
  let att = Option.get machine.Paradice.Machine.gpu in
  let mgr = Option.get att.Paradice.Machine.isolation in
  let blocked = ref [] and passed = ref [] in
  let attack name f =
    match f () with
    | `Blocked -> blocked := name :: !blocked
    | `Succeeded -> passed := name :: !passed
  in
  attack "driver VM reads protected pool page" (fun () ->
      let spa = Hypervisor.Region.alloc_protected_page mgr ~rid:0 in
      let gpas = Memory.Ept.gpas_of_spn (Hypervisor.Vm.ept driver_vm) (Memory.Addr.pfn spa) in
      if
        List.for_all
          (fun gpa ->
            match Hypervisor.Vm.read_gpa driver_vm ~gpa ~len:8 with
            | _ -> false
            | exception Memory.Fault.Ept_violation _ -> true)
          gpas
        && gpas <> []
      then `Blocked
      else `Succeeded);
  attack "driver VM reads VRAM" (fun () ->
      let gpas =
        Memory.Ept.gpas_of_spn (Hypervisor.Vm.ept driver_vm)
          (Memory.Addr.pfn (Devices.Gpu_hw.vram_base att.Paradice.Machine.gpu))
      in
      if
        gpas <> []
        && List.for_all
             (fun gpa ->
               match Hypervisor.Vm.read_gpa driver_vm ~gpa ~len:8 with
               | _ -> false
               | exception Memory.Fault.Ept_violation _ -> true)
             gpas
      then `Blocked
      else `Succeeded);
  attack "IOMMU mapping of another region's page" (fun () ->
      let spa = Hypervisor.Region.alloc_protected_page mgr ~rid:0 in
      match
        Hypervisor.Region.request_iommu_map mgr ~rid:1 ~dma:0x7000000 ~spa
          ~perms:Memory.Perm.rw
      with
      | () -> `Succeeded
      | exception Hypervisor.Region.Isolation_violation _ -> `Blocked);
  attack "GPU access outside its memory-controller bounds" (fun () ->
      let gpu = att.Paradice.Machine.gpu in
      let before = List.length (Devices.Gpu_hw.faults gpu) in
      let (_ : int) = Hypervisor.Region.switch_region mgr ~rid:0 in
      (* region 0's slice excludes region 1's base *)
      let base1, _ = Hypervisor.Region.dev_slice mgr 1 in
      Devices.Gpu_hw.submit gpu
        (Devices.Gpu_hw.Blit
           {
             src = Devices.Gpu_hw.Vram (base1 - Devices.Gpu_hw.vram_base gpu);
             dst = Devices.Gpu_hw.Vram 4096;
             len = 16;
           });
      Devices.Gpu_hw.submit gpu (Devices.Gpu_hw.Fence 99999);
      Sim.Engine.run ~until:(Sim.Engine.now (Paradice.Machine.engine machine) +. 10_000.)
        (Paradice.Machine.engine machine);
      if List.length (Devices.Gpu_hw.faults gpu) > before then `Blocked else `Succeeded);
  attack "forged copy into guest kernel space" (fun () ->
      let table = Option.get (Hypervisor.Hyp.grant_table_of hyp g1.Paradice.Machine.vm) in
      let gref =
        Hypervisor.Grant_table.declare table
          [ Hypervisor.Grant_table.Copy_to_user { addr = 0x1000; len = 8 } ]
      in
      let app = Oskit.Kernel.spawn_task g1.Paradice.Machine.kernel ~name:"victim" in
      let req =
        { Hypervisor.Hyp.caller = driver_vm; target = g1.Paradice.Machine.vm;
          pt = app.Oskit.Defs.pt; grant_ref = gref }
      in
      match
        Hypervisor.Hyp.copy_to_process hyp req ~gva:0xC0000000 ~data:(Bytes.make 8 'X')
      with
      | () -> `Succeeded
      | exception Hypervisor.Hyp.Rejected _ -> `Blocked);
  Report.table ~header:[ "attack"; "outcome" ]
    (List.rev_map (fun name -> [ name; "BLOCKED" ]) !blocked
    @ List.rev_map (fun name -> [ name; "!!! SUCCEEDED" ]) !passed);
  let audit = Hypervisor.Hyp.audit hyp in
  Report.note "audit: %s" (Format.asprintf "%a" Hypervisor.Audit.pp audit);
  Report.note "paper: fault + data isolation hold with no noticeable overhead"

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out, plus the        *)
(* paper's extension/future-work features implemented in this repo    *)
(* ------------------------------------------------------------------ *)

let ablations () =
  Report.heading "Ablations & extensions";

  (* 1. ioctl identification: analyzer vs macro-only (§4.1).  Nested-
     copy ioctls (CS) must fail without the analyzer: the backend
     driver's inner copies are undeclared and the hypervisor rejects
     them. *)
  Printf.printf "\n  -- ioctl identification mode (GEM+CS workflow in a guest) --\n";
  let try_cs mode_name ioctl_id_mode =
    let cfg = { Paradice.Config.default with Paradice.Config.ioctl_id_mode } in
    let _m, env = Setup.make ~devices:[ Setup.Gpu ] (Setup.Paradice cfg) in
    let outcome =
      Workloads.Runner.run_to_completion env (fun () ->
          let task = Workloads.Runner.spawn_app env ~name:"gl" in
          let fd = Workloads.Gem.open_gpu env task in
          let bo =
            Workloads.Gem.create env task fd ~size:4096
              ~domain:Devices.Radeon_ioctl.domain_gtt
          in
          match
            Workloads.Gem.submit_cs env task fd
              ~ib_words:[ Devices.Radeon_ioctl.pkt_draw; 100; 640; 480; 1; 0 ]
              ~relocs:[| bo |]
          with
          | (_ : int) -> "command submission OK"
          | exception Workloads.Runner.Syscall_failed (e, _) ->
              "CS rejected with " ^ Oskit.Errno.to_string e)
    in
    [ mode_name; outcome ]
  in
  Report.table ~header:[ "identification"; "outcome" ]
    [
      try_cs "analyzer table + JIT slices" Paradice.Config.Analyzer_table;
      try_cs "macro decoding only" Paradice.Config.Macro_only;
    ];
  Report.note "nested-copy ioctls need the analyzer: macros cannot declare them";

  (* 2. channel pool width: a blocked read must not stall other files *)
  Printf.printf "\n  -- per-guest backend parallelism --\n";
  let stall_probe channels_per_guest =
    let cfg = { Paradice.Config.default with Paradice.Config.channels_per_guest } in
    let machine, env = Setup.make ~devices:[ Setup.Mouse; Setup.Null ] (Setup.Paradice cfg) in
    ignore machine;
    let result = ref nan in
    Workloads.Runner.spawn env (fun () ->
        (* a blocking mouse read parks one backend worker *)
        let task = Workloads.Runner.spawn_app env ~name:"blocked-reader" in
        let fd = Workloads.Runner.openf env task "/dev/input/event0" in
        let buf = Oskit.Task.alloc_buf task 64 in
        match Oskit.Vfs.read env.Workloads.Runner.kernel task fd ~buf ~len:64 with
        | _ -> ()
        | exception _ -> ());
    Workloads.Runner.spawn env (fun () ->
        Sim.Engine.wait 200.;
        (* meanwhile: time 50 no-ops on another device file *)
        let task = Workloads.Runner.spawn_app env ~name:"noop" in
        let fd = Workloads.Runner.openf env task "/dev/null0" in
        let t0 = Workloads.Runner.now_us env in
        let n = 50 in
        let finished = ref 0 in
        (try
           for _ = 1 to n do
             ignore
               (Workloads.Runner.ioctl env task fd ~cmd:Paradice.Machine.null_ioctl
                  ~arg:0L);
             incr finished
           done
         with _ -> ());
        if !finished = n then
          result := (Workloads.Runner.now_us env -. t0) /. float_of_int n);
    Sim.Engine.run ~until:2_000_000. (Workloads.Runner.engine env);
    !result
  in
  Report.table ~header:[ "channels/guest"; "noop while a read blocks (us)" ]
    [
      [ "1"; (let r = stall_probe 1 in if Float.is_nan r then "stalled (never completed)" else Report.f2 r) ];
      [ "4 (default)"; Report.f2 (stall_probe 4) ];
    ];

  (* 3. cross-machine DSM transport (§8 future work) *)
  Printf.printf "\n  -- DSM-based cross-machine Paradice (§8) --\n";
  let noop_of cfg =
    let _m, env = Setup.make ~devices:[ Setup.Null ] (Setup.Paradice cfg) in
    Workloads.Noop_bench.run env ~ops:(scaled 500) ()
  in
  Report.table ~header:[ "transport"; "noop (us)" ]
    [
      [ "same machine, interrupts"; Report.f2 (noop_of Paradice.Config.default) ];
      [ "cross-machine DSM (10GbE-class)"; Report.f2 (noop_of Paradice.Config.remote_dsm) ];
    ];

  (* 4. software-emulated VSync (§5.3 extension) *)
  Printf.printf "\n  -- software-emulated VSync --\n";
  let fps_with vsync =
    let _m, env = Setup.make ~devices:[ Setup.Gpu ] (Setup.Paradice Paradice.Config.default) in
    Workloads.Gfx.run env ~vsync ~profile:Workloads.Gfx.vbo ~width:1024 ~height:768
      ~frames:(scaled 40) ()
  in
  Report.table ~header:[ "vsync"; "VBO FPS" ]
    [
      [ "off (as in §6.1.3)"; Report.f1 (fps_with false) ];
      [ "on (emulated, 60 Hz)"; Report.f1 (fps_with true) ];
    ];

  (* 5. device breakage and recovery (§8) *)
  Printf.printf "\n  -- malicious command stream: breakage and recovery --\n";
  let machine, env = Setup.make ~devices:[ Setup.Gpu ] (Setup.Paradice Paradice.Config.default) in
  let att = Option.get machine.Paradice.Machine.gpu in
  Devices.Radeon_drv.set_watchdog_timeout att.Paradice.Machine.radeon 10_000.;
  let rows =
    Workloads.Runner.run_to_completion env (fun () ->
        let task = Workloads.Runner.spawn_app env ~name:"evil" in
        let fd = Workloads.Gem.open_gpu env task in
        (* wedge the GPU with a clock-control write *)
        let wedge_outcome =
          match
            Workloads.Gem.submit_cs env task fd
              ~ib_words:[ Devices.Radeon_ioctl.pkt_reg_write; Devices.Gpu_hw.reg_clock_ctl; 0 ]
              ~relocs:[||]
          with
          | (_ : int) -> (
              match Workloads.Gem.wait_idle env task fd with
              | () -> "GPU survived"
              | exception Workloads.Runner.Syscall_failed (Oskit.Errno.EIO, _) ->
                  "hang detected, device reset")
          | exception Workloads.Runner.Syscall_failed (e, _) ->
              "rejected: " ^ Oskit.Errno.to_string e
        in
        (* the device must work again afterwards *)
        let after =
          let bo =
            Workloads.Gem.create env task fd ~size:4096
              ~domain:Devices.Radeon_ioctl.domain_gtt
          in
          match
            Workloads.Gem.submit_cs env task fd
              ~ib_words:[ Devices.Radeon_ioctl.pkt_draw; 100; 640; 480; 1; 0 ]
              ~relocs:[| bo |]
          with
          | (_ : int) ->
              Workloads.Gem.wait_idle env task fd;
              "renders normally"
          | exception _ -> "still broken"
        in
        [ [ "attack: clock-control register write"; wedge_outcome ];
          [ "after recovery"; after ] ])
  in
  Report.table ~header:[ "step"; "outcome" ] rows;
  Report.note "recoveries performed: %d"
    (Devices.Radeon_drv.stats_recoveries att.Paradice.Machine.radeon);

  (* 6. command-streamer protection (§8's "protect certain parts of the
     device programming interface") *)
  let machine2, env2 = Setup.make ~devices:[ Setup.Gpu ] (Setup.Paradice Paradice.Config.default) in
  let att2 = Option.get machine2.Paradice.Machine.gpu in
  Devices.Radeon_drv.set_command_streamer_protection att2.Paradice.Machine.radeon true;
  let outcome =
    Workloads.Runner.run_to_completion env2 (fun () ->
        let task = Workloads.Runner.spawn_app env2 ~name:"evil" in
        let fd = Workloads.Gem.open_gpu env2 task in
        match
          Workloads.Gem.submit_cs env2 task fd
            ~ib_words:[ Devices.Radeon_ioctl.pkt_reg_write; Devices.Gpu_hw.reg_clock_ctl; 0 ]
            ~relocs:[||]
        with
        | (_ : int) -> "accepted (!)"
        | exception Workloads.Runner.Syscall_failed (e, _) ->
            "rejected with " ^ Oskit.Errno.to_string e)
  in
  Report.table ~header:[ "with command-streamer protection"; "outcome" ]
    [ [ "clock-control register write"; outcome ] ];

  (* 7. fair GPU scheduling across guests (§8's TimeGraph pointer) *)
  Printf.printf "\n  -- per-guest GPU scheduling under a flooding guest --\n";
  let victim_latency fair =
    let machine, _env =
      Setup.make ~devices:[ Setup.Gpu ] ~extra_guests:1
        (Setup.Paradice Paradice.Config.default)
    in
    let att = Option.get machine.Paradice.Machine.gpu in
    Devices.Radeon_drv.set_fair_scheduling att.Paradice.Machine.radeon fair;
    let guests = Paradice.Machine.guests machine in
    let flooder = List.nth guests 0 and victim = List.nth guests 1 in
    let env_f = Workloads.Runner.of_guest ~label:"flooder" machine flooder in
    let env_v = Workloads.Runner.of_guest ~label:"victim" machine victim in
    let latency = ref nan in
    Workloads.Runner.spawn env_f (fun () ->
        let task = Workloads.Runner.spawn_app env_f ~name:"flood" in
        let fd = Workloads.Gem.open_gpu env_f task in
        let bo =
          Workloads.Gem.create env_f task fd ~size:4096
            ~domain:Devices.Radeon_ioctl.domain_gtt
        in
        let ib =
          List.concat
            (List.init 40 (fun _ ->
                 [ Devices.Radeon_ioctl.pkt_draw; 30000; 1280; 1024; 1; 0 ]))
        in
        let (_ : int) =
          Workloads.Gem.submit_cs env_f task fd ~ib_words:ib ~relocs:[| bo |]
        in
        Workloads.Gem.wait_idle env_f task fd);
    Workloads.Runner.spawn env_v (fun () ->
        Sim.Engine.wait 2_000.;
        let task = Workloads.Runner.spawn_app env_v ~name:"small" in
        let fd = Workloads.Gem.open_gpu env_v task in
        let bo =
          Workloads.Gem.create env_v task fd ~size:4096
            ~domain:Devices.Radeon_ioctl.domain_gtt
        in
        let t0 = Workloads.Runner.now_us env_v in
        let ib = [ Devices.Radeon_ioctl.pkt_draw; 100; 320; 200; 1; 0 ] in
        let (_ : int) =
          Workloads.Gem.submit_cs env_v task fd ~ib_words:ib ~relocs:[| bo |]
        in
        Workloads.Gem.wait_idle env_v task fd;
        latency := Workloads.Runner.now_us env_v -. t0);
    Workloads.Runner.run env_v;
    !latency /. 1000.
  in
  Report.table ~header:[ "GPU scheduling"; "victim job latency (ms)" ]
    [
      [ "FIFO (paper's prototype)"; Report.f1 (victim_latency false) ];
      [ "fair round-robin (extension)"; Report.f1 (victim_latency true) ];
    ];
  Report.note "one flooding guest queues ~40 expensive frames; the victim submits one small job"


(* ------------------------------------------------------------------ *)
(* §7.2: driver-VM crash recovery latency                              *)
(* ------------------------------------------------------------------ *)

(* How long until a driver-VM death is detected, how long the grant
   revoke + mapping teardown takes, and how long from the start of the
   reboot until a re-opened device file completes its first operation.
   Two crash modes: a poisoned crash is noticed by the in-flight RPC
   immediately; a silent crash is caught by the heartbeat watchdog. *)
let recovery () =
  Report.heading "§7.2 — driver-VM crash recovery latency";
  let module M = Paradice.Machine in
  let module CF = Paradice.Cvd_front in
  let run ~label ~silent =
    let config =
      if silent then
        {
          Paradice.Config.default with
          Paradice.Config.heartbeat_interval_us = 1_000.;
          heartbeat_miss_limit = 3;
          rpc_retries = 0;
        }
      else Paradice.Config.default
    in
    let m = M.create ~config () in
    let (_ : Oskit.Defs.device) = M.attach_null m in
    let (_ : Devices.Evdev.t) = M.attach_mouse m in
    let g = M.add_guest m ~name:"g1" () in
    let eng = M.engine m in
    (* a reader blocked in the driver VM when it dies: in the poisoned
       mode, this in-flight RPC is what notices the crash *)
    if not silent then
      Sim.Engine.spawn eng (fun () ->
          let app = M.spawn_app m g.M.kernel ~name:"reader" in
          let k = g.M.kernel in
          match Oskit.Vfs.openf k app "/dev/input/event0" with
          | Ok fd ->
              let buf = Oskit.Task.alloc_buf app 256 in
              ignore (Oskit.Vfs.read k app fd ~buf ~len:256)
          | Error _ -> ());
    Sim.Engine.at eng ~delay:10_000. (fun () ->
        M.kill_driver_vm ~poison:(not silent) m);
    let detection = ref nan and teardown = ref nan and reopen = ref nan in
    Sim.Engine.spawn eng (fun () ->
        let app = M.spawn_app m g.M.kernel ~name:"recovery-probe" in
        let k = g.M.kernel in
        while CF.session g.M.frontend = CF.Healthy do
          Sim.Engine.wait 100.
        done;
        let fs = CF.fault_stats g.M.frontend in
        detection := fs.CF.last_faulted_at -. M.last_killed_at m;
        teardown := fs.CF.last_teardown_us;
        let reboot_began = Sim.Engine.now eng in
        M.reboot_driver_vm m;
        match Oskit.Vfs.openf k app "/dev/null0" with
        | Ok fd -> (
            match Oskit.Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L with
            | Ok _ -> reopen := Sim.Engine.now eng -. reboot_began
            | Error _ -> ())
        | Error _ -> ());
    Sim.Engine.run ~until:2_000_000. eng;
    CF.stop_watchdog g.M.frontend;
    [ label; Report.f1 !detection; Report.f2 !teardown; Report.f1 !reopen ]
  in
  Report.table
    ~header:
      [ "crash mode"; "detection (us)"; "teardown (us)"; "reboot->first op (us)" ]
    [
      run ~label:"poisoned (in-flight RPC)" ~silent:false;
      run ~label:"silent (watchdog)" ~silent:true;
    ];
  Report.note
    "reboot dominated by Config.driver_reboot_us (%.0f us); paper §7.2: the driver VM 'can be rebooted in a few seconds'"
    Paradice.Config.default.Paradice.Config.driver_reboot_us

(* ------------------------------------------------------------------ *)
(* Ring throughput: no-op ops/sec vs in-flight depth                   *)
(* ------------------------------------------------------------------ *)

(* The descriptor ring lets one channel carry several RPCs at once and
   coalesces doorbells: while the backend is draining, newly published
   descriptors ride along without their own interrupt, so per-op
   signalling cost amortises toward zero.  This experiment pins the
   guest to ONE channel and sweeps the number of concurrent no-op
   issuers: the serial baseline pays 2 legs/op (~35 us); at depth >= 4
   the ring should better than double the ops/sec with fewer than one
   interrupt leg per operation. *)
let throughput () =
  Report.heading "Ring throughput — no-op ioctls vs in-flight depth (one channel)";
  let module R = Workloads.Runner in
  let total = scaled 2000 in
  let run_depth config depth =
    let machine, env = Setup.make ~devices:[ Setup.Null ] (Setup.Paradice config) in
    let g = List.hd (Paradice.Machine.guests machine) in
    let pool_stats () =
      Paradice.Chan_pool.stats
        g.Paradice.Machine.link.Paradice.Cvd_back.pool
    in
    (* warm the channel so the sweep measures the steady state *)
    R.run_to_completion env (fun () ->
        let task = R.spawn_app env ~name:"warm" in
        let fd = R.openf env task "/dev/null0" in
        let (_ : int) = R.ioctl env task fd ~cmd:Paradice.Machine.null_ioctl ~arg:0L in
        R.close env task fd);
    let s0 = pool_stats () in
    let t0 = R.now_us env in
    let per_fiber = max 1 (total / depth) in
    for i = 1 to depth do
      R.spawn env (fun () ->
          let task = R.spawn_app env ~name:(Printf.sprintf "issuer%d" i) in
          let fd = R.openf env task "/dev/null0" in
          for _ = 1 to per_fiber do
            let (_ : int) =
              R.ioctl env task fd ~cmd:Paradice.Machine.null_ioctl ~arg:0L
            in
            ()
          done)
    done;
    R.run env;
    let s1 = pool_stats () in
    let ops = per_fiber * depth in
    let us_per_op = (R.now_us env -. t0) /. float_of_int ops in
    let legs_per_op =
      float_of_int (s1.Paradice.Chan_pool.legs - s0.Paradice.Chan_pool.legs)
      /. float_of_int ops
    in
    (us_per_op, legs_per_op)
  in
  let sweep label config =
    let base_us, _ = run_depth config 1 in
    Report.table
      ~header:
        [ "depth"; "us/op"; "ops/sec"; "speedup"; "interrupt legs/op" ]
      (List.map
         (fun depth ->
           let us_per_op, legs_per_op = run_depth config depth in
           [
             string_of_int depth;
             Report.f2 us_per_op;
             Printf.sprintf "%.0f" (1e6 /. us_per_op);
             Report.f2 (base_us /. us_per_op);
             Report.f2 legs_per_op;
           ])
         [ 1; 2; 4; 8 ]);
    Report.note "%s: serial baseline pays 2 legs/op" label
  in
  sweep "interrupts"
    { Paradice.Config.default with Paradice.Config.channels_per_guest = 1 };
  Report.note
    "acceptance: depth >= 4 at >= 2x the depth-1 ops/sec with < 1 interrupt leg/op"

(* ------------------------------------------------------------------ *)
(* Memory-operation fast path: wall-clock MB/s, 64 B - 1 MiB           *)
(* ------------------------------------------------------------------ *)

(* Unlike every experiment above, this one measures the wall-clock
   cost of the implementation's own data plane, not simulated time:
   the software TLB, the zero-copy blits and the grant-check cache
   only change how fast the harness executes, never what the cost
   model reports.  The "legacy" column re-implements the pre-fast-path
   data plane in-binary (per-page radix walks with no TLB, an
   intermediate allocation per page, a fresh grant-table scan per
   request) so the speedup is measured against the real old path. *)
let memops () =
  Report.heading "Memory-operation fast path — wall-clock MB/s (not simulated time)";
  let module Hyp = Hypervisor.Hyp in
  let module Vm = Hypervisor.Vm in
  let module Grant_table = Hypervisor.Grant_table in
  let page_size = Memory.Addr.page_size in
  let phys = Memory.Phys_mem.create () in
  let hyp = Hyp.create phys in
  let driver =
    Hyp.create_vm hyp ~name:"driver" ~kind:Vm.Driver ~mem_bytes:(4 * 1024 * 1024)
  in
  let guest =
    Hyp.create_vm hyp ~name:"guest" ~kind:Vm.Guest ~mem_bytes:(8 * 1024 * 1024)
  in
  let table = Hyp.setup_grant_table hyp guest in
  let pt = Memory.Guest_pt.create () in
  Hyp.register_process hyp guest ~pid:1 ~pt;
  (* a 1 MiB process buffer, page by page *)
  let buf_gva = 0x4000_0000 in
  let buf_len = 1 lsl 20 in
  for i = 0 to (buf_len / page_size) - 1 do
    let gpa = Vm.alloc_gpa_page guest in
    Memory.Guest_pt.map pt
      ~gva:(buf_gva + (i * page_size))
      ~gpa ~perms:Memory.Perm.rw
  done;
  Vm.write_gva guest ~pt ~gva:buf_gva
    (Bytes.init buf_len (fun i -> Char.chr (i land 0xff)));
  let grant_ref =
    Grant_table.declare table
      [
        Grant_table.Copy_from_user { addr = buf_gva; len = buf_len };
        Grant_table.Copy_to_user { addr = buf_gva; len = buf_len };
      ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref } in
  (* the pre-fast-path data plane, reproduced exactly: grant scan plus
     per-page walk/walk/alloc/blit (read) or walk/walk/sub/write *)
  let legacy_copy_from ~gva ~len =
    if
      not
        (Grant_table.authorises table ~grant_ref
           ~requested:(Grant_table.Copy_from_user { addr = gva; len }))
    then failwith "memops: unauthorised";
    let out = Bytes.create len in
    let pos = ref 0 in
    List.iter
      (fun (addr, chunk) ->
        let gpa = Memory.Guest_pt.translate pt ~gva:addr ~access:Memory.Perm.Read in
        let spa =
          Memory.Ept.translate (Vm.ept guest) ~gpa ~access:Memory.Perm.Read
        in
        Bytes.blit (Memory.Phys_mem.read phys ~spa ~len:chunk) 0 out !pos chunk;
        pos := !pos + chunk)
      (Memory.Addr.page_chunks ~addr:gva ~len);
    out
  in
  let legacy_copy_to ~gva data =
    let len = Bytes.length data in
    if
      not
        (Grant_table.authorises table ~grant_ref
           ~requested:(Grant_table.Copy_to_user { addr = gva; len }))
    then failwith "memops: unauthorised";
    let pos = ref 0 in
    List.iter
      (fun (addr, chunk) ->
        let gpa = Memory.Guest_pt.translate pt ~gva:addr ~access:Memory.Perm.Write in
        let spa =
          Memory.Ept.translate (Vm.ept guest) ~gpa ~access:Memory.Perm.Write
        in
        Memory.Phys_mem.write phys ~spa (Bytes.sub data !pos chunk);
        pos := !pos + chunk)
      (Memory.Addr.page_chunks ~addr:gva ~len)
  in
  (* best of three trials, collecting first, so one path's garbage (or
     a stray collection) doesn't get billed to the other *)
  let time f =
    let trial () =
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    let best = ref infinity in
    for _ = 1 to 3 do
      let t = trial () in
      if t < !best then best := t
    done;
    !best
  in
  let mbps bytes secs = float_of_int bytes /. 1e6 /. secs in
  let sizes = [ 64; 256; 1024; 4096; 16384; 65536; 262144; 1048576 ] in
  let iters size = max 4 (scaled (16 * 1024 * 1024) / size) in
  let audit = Hyp.audit hyp in
  let results =
    List.map
      (fun size ->
        let n = iters size in
        let total = n * size in
        let scratch = Bytes.create size in
        let legacy_read =
          time (fun () ->
              for _ = 1 to n do
                ignore (legacy_copy_from ~gva:buf_gva ~len:size)
              done)
        in
        let fast_read =
          time (fun () ->
              for _ = 1 to n do
                Hyp.copy_from_process_into hyp req ~gva:buf_gva ~dst:scratch
                  ~dst_off:0 ~len:size
              done)
        in
        let legacy_write =
          time (fun () ->
              for _ = 1 to n do
                legacy_copy_to ~gva:buf_gva scratch
              done)
        in
        let fast_write =
          time (fun () ->
              for _ = 1 to n do
                Hyp.copy_to_process_from hyp req ~gva:buf_gva ~src:scratch
                  ~src_off:0 ~len:size
              done)
        in
        (size, total,
         mbps total legacy_read, mbps total fast_read,
         mbps total legacy_write, mbps total fast_write))
      sizes
  in
  Report.table
    ~header:
      [ "size (B)"; "legacy rd MB/s"; "fast rd MB/s"; "rd speedup";
        "legacy wr MB/s"; "fast wr MB/s"; "wr speedup" ]
    (List.map
       (fun (size, _, lr, fr, lw, fw) ->
         [
           string_of_int size;
           Printf.sprintf "%.0f" lr; Printf.sprintf "%.0f" fr;
           Report.f1 (fr /. lr);
           Printf.sprintf "%.0f" lw; Printf.sprintf "%.0f" fw;
           Report.f1 (fw /. lw);
         ])
       results);
  let hits = Hypervisor.Audit.tlb_hits audit
  and misses = Hypervisor.Audit.tlb_misses audit
  and walks = Hypervisor.Audit.walks_performed audit in
  let hit_rate =
    if hits + misses = 0 then 0.
    else float_of_int hits /. float_of_int (hits + misses)
  in
  Report.note "tlb_hits=%d tlb_misses=%d walks_performed=%d grant_cache_hits=%d"
    hits misses walks audit.Hypervisor.Audit.grant_cache_hits;
  Report.note "TLB hit rate %.1f%% (acceptance: > 90%%)" (100. *. hit_rate);
  Report.note
    "acceptance: >= 5x wall-clock MB/s over the legacy path on 64 KiB copies";
  Report.note
    "simulated-time results are unaffected: the fast path changes harness speed only";
  (* machine-readable record for CI *)
  let oc = open_out "BENCH_memops.json" in
  let row_json (size, total, lr, fr, lw, fw) =
    Printf.sprintf
      {|    {"size": %d, "bytes_moved": %d, "read": {"legacy_mbps": %.1f, "fast_mbps": %.1f, "speedup": %.2f}, "write": {"legacy_mbps": %.1f, "fast_mbps": %.1f, "speedup": %.2f}}|}
      size total lr fr (fr /. lr) lw fw (fw /. lw)
  in
  Printf.fprintf oc
    {|{
  "experiment": "memops",
  "scale": %g,
  "sizes": [
%s
  ],
  "audit": {"tlb_hits": %d, "tlb_misses": %d, "walks_performed": %d, "grant_cache_hits": %d},
  "tlb_hit_rate": %.4f
}
|}
    !scale
    (String.concat ",\n" (List.map row_json results))
    hits misses walks audit.Hypervisor.Audit.grant_cache_hits hit_rate;
  close_out oc;
  Report.note "wrote BENCH_memops.json"

(* ------------------------------------------------------------------ *)
(* Operation tracing: Chrome trace export + §6.1 cost reconciliation   *)
(* ------------------------------------------------------------------ *)

(* Runs the no-op and netmap workloads twice each — tracing off, then
   on — and checks (a) the simulated-time result is bit-identical (the
   tracer only reads the clock), and (b) per trace id, the stage spans
   tile the end-to-end op span.  Exports Perfetto-loadable traces. *)
let trace () =
  Report.heading "Operation tracing — Chrome trace export + §6.1 reconciliation";
  let noop_run tracer =
    let cfg = { Paradice.Config.default with Paradice.Config.tracer } in
    let _m, env = Setup.make ~devices:[ Setup.Null ] (Setup.Paradice cfg) in
    Workloads.Noop_bench.run env ~ops:(scaled 50) ()
  in
  let netmap_run tracer =
    let cfg = { Paradice.Config.default with Paradice.Config.tracer } in
    let _m, env = Setup.make ~devices:[ Setup.Netmap ] (Setup.Paradice cfg) in
    (Workloads.Netmap_pktgen.run env ~packets:(scaled 2000) ~batch:8 ())
      .Workloads.Netmap_pktgen.elapsed_s
  in
  let noop_off = noop_run Obs.Trace.disabled in
  let noop_tr = Obs.Trace.create () in
  let noop_on = noop_run noop_tr in
  let nm_off = netmap_run Obs.Trace.disabled in
  let nm_tr = Obs.Trace.create () in
  let nm_on = netmap_run nm_tr in
  let span_count t = List.length (Obs.Trace.completed t) in
  let row name t off on =
    let r = Obs.Trace.reconcile t in
    ( name, r, span_count t,
      [
        name;
        string_of_int (span_count t);
        string_of_int r.Obs.Trace.r_ops;
        Printf.sprintf "%.3f" r.Obs.Trace.r_max_gap_us;
        (if off = on then "identical" else "PERTURBED");
      ] )
  in
  let noop_row = row "noop (ioctl)" noop_tr noop_off noop_on in
  let nm_row = row "netmap pktgen" nm_tr nm_off nm_on in
  Report.table
    ~header:
      [ "workload"; "spans"; "ops reconciled"; "max gap (us)"; "off vs on" ]
    [ (fun (_, _, _, r) -> r) noop_row; (fun (_, _, _, r) -> r) nm_row ];
  Report.note
    "acceptance: per-stage span sums reconcile with end-to-end op latency";
  Report.note
    "            within one simulated tick; tracing on = bit-identical timing";
  (* per-stage latency histograms from the span metrics (noop run) *)
  Report.table ~header:[ "span (noop run)"; "count"; "mean (us)" ]
    (List.filter_map
       (fun (name, h) ->
         if Sim.Stats.count h = 0 then None
         else
           Some
             [
               name;
               string_of_int (Sim.Stats.count h);
               Report.f2 (Sim.Stats.mean h);
             ])
       (Obs.Metrics.histograms (Obs.Trace.metrics noop_tr)));
  List.iter
    (fun (name, count) -> Report.note "counter %s = %d" name count)
    (Obs.Metrics.counters (Obs.Trace.metrics noop_tr));
  (* Perfetto-loadable exports + machine-readable summary for CI *)
  let dump path t =
    let oc = open_out path in
    output_string oc (Obs.Trace.to_chrome_json t);
    close_out oc
  in
  dump "BENCH_trace_noop.json" noop_tr;
  dump "BENCH_trace_netmap.json" nm_tr;
  let oc = open_out "BENCH_trace.json" in
  let summary (name, r, spans, _) off on =
    Printf.sprintf
      {|    {"workload": "%s", "spans": %d, "ops_reconciled": %d, "max_gap_us": %.3f, "identical_off_on": %b}|}
      name spans r.Obs.Trace.r_ops r.Obs.Trace.r_max_gap_us (off = on)
  in
  Printf.fprintf oc
    {|{
  "experiment": "trace",
  "scale": %g,
  "runs": [
%s
  ]
}
|}
    !scale
    (String.concat ",\n"
       [ summary noop_row noop_off noop_on; summary nm_row nm_off nm_on ]);
  close_out oc;
  Report.note
    "wrote BENCH_trace.json, BENCH_trace_noop.json, BENCH_trace_netmap.json";
  Report.note "load the trace files in https://ui.perfetto.dev to inspect"

(* ------------------------------------------------------------------ *)
(* Backend containment: sanitization cost + quarantine isolation       *)
(* ------------------------------------------------------------------ *)

(* Two claims from §4/§7.1: bounding every request field costs nothing
   on the data path (it is pure backend work, off the device), and
   quarantining a misbehaving guest leaves sibling guests' service
   untouched.  The attack is the hostile-suite one: raw garbage written
   straight into the attacker's ring slots until its misbehavior score
   trips the threshold. *)
let containment () =
  Report.heading "§7.1 — backend containment: sanitization cost, quarantine isolation";
  let measure config =
    let _m, env = Setup.make ~devices:[ Setup.Null ] (Setup.Paradice config) in
    Workloads.Noop_bench.run env ~ops:(scaled 2000) ()
  in
  let s_on = measure Paradice.Config.default in
  let s_off =
    measure
      { Paradice.Config.default with Paradice.Config.sanitize_requests = false }
  in
  Report.table
    ~header:[ "config"; "noop added latency (us/op)" ]
    [
      [ "sanitize on (default)"; Report.f2 s_on ];
      [ "sanitize off (ablation)"; Report.f2 s_off ];
    ];
  Report.note
    "sanitization bounds every field off the data path: delta = %+.3f us/op"
    (s_on -. s_off);
  (* victim latency while a sibling attacks its way into quarantine *)
  let module M = Paradice.Machine in
  let module CB = Paradice.Cvd_back in
  let module P = Paradice.Proto in
  let victim_run ~attack =
    let m = M.create () in
    let (_ : Oskit.Defs.device) = M.attach_null m in
    let attacker = M.add_guest m ~name:"attacker" () in
    let victim = M.add_guest m ~name:"victim" () in
    let ops = scaled 500 in
    let elapsed = ref nan and served = ref 0 in
    if attack then
      Sim.Engine.spawn (M.engine m) (fun () ->
          let rng = Sim.Rng.create ~seed:0xBADD1EL in
          for _round = 1 to 20 do
            Paradice.Chan_pool.iter_channels attacker.M.link.CB.pool (fun c ->
                for slot = 0 to Paradice.Channel.ring_slots c - 1 do
                  Paradice.Channel.inject_raw c ~slot
                    (Bytes.init P.slot_size (fun _ ->
                         Char.chr (Sim.Rng.int rng 256)))
                done);
            Sim.Engine.wait 25.
          done);
    Sim.Engine.spawn (M.engine m) (fun () ->
        let app = M.spawn_app m victim.M.kernel ~name:"victim" in
        let req = P.encode_request ~grant_ref:0 ~pid:app.Oskit.Defs.pid P.Rnoop in
        let t0 = Sim.Engine.now (M.engine m) in
        for _ = 1 to ops do
          match
            Paradice.Chan_pool.rpc victim.M.link.CB.pool ~trace:0 ~encode:(P.encoded req)
              ~decode:P.decode_response
          with
          | P.Rok 0 -> incr served
          | _ -> ()
          | exception _ -> ()
        done;
        elapsed := Sim.Engine.now (M.engine m) -. t0);
    Sim.Engine.run ~until:5_000_000. (M.engine m);
    (!elapsed /. float_of_int ops, !served, ops, attacker.M.link.CB.quarantined)
  in
  let solo_us, solo_served, solo_ops, _ = victim_run ~attack:false in
  let att_us, att_served, att_ops, quarantined = victim_run ~attack:true in
  Report.table
    ~header:[ "victim workload"; "noops served"; "us/op"; "attacker state" ]
    [
      [
        "solo baseline";
        Printf.sprintf "%d/%d" solo_served solo_ops;
        Report.f2 solo_us;
        "-";
      ];
      [
        "sibling under attack";
        Printf.sprintf "%d/%d" att_served att_ops;
        Report.f2 att_us;
        (if quarantined then "quarantined" else "NOT QUARANTINED");
      ];
    ];
  Report.note
    "acceptance: victim within 20%% of the solo baseline (ratio %.3f); attacker quarantined"
    (att_us /. solo_us)

(* ------------------------------------------------------------------ *)
(* Hot upgrade: guest-visible blackout per op class                    *)
(* ------------------------------------------------------------------ *)

(* The live-operations claim: a planned driver-VM upgrade is invisible
   to guests except as latency.  Each op class runs a steady operation
   stream; mid-run the driver VM is hot-upgraded (replacement boot
   overlapped with live service, then quiesce / checkpoint / swap /
   restore / resume).  Reported per class: the no-upgrade worst-case
   per-op latency, the worst guest-visible stall across the upgrade,
   and the upgrade's phase breakdown.  Acceptance: every operation
   completes with zero ENODEV/EIO across the upgrade, and two
   no-upgrade runs are bit-identical in simulated time (the handoff
   machinery costs nothing when not triggered). *)
let upgrade () =
  Report.heading "Hot upgrade — guest-visible blackout per op class";
  let module M = Paradice.Machine in
  let ops = scaled 300 in
  (* boot time is overlapped with live service, but the workload still
     has to outlast it for the blackout to land mid-stream *)
  let config =
    { Paradice.Config.default with Paradice.Config.driver_reboot_us = 5_000. }
  in
  let upgrade_at = 2_000. in
  let run ~cls ~do_upgrade =
    let m = M.create ~config () in
    let (_ : Oskit.Defs.device) = M.attach_null m in
    let mouse = M.attach_mouse m in
    let (_ : Devices.Netmap_drv.t) = M.attach_netmap m in
    let g = M.add_guest m ~name:"g1" () in
    let eng = M.engine m in
    let k = g.M.kernel in
    let lats = ref [] and enodev = ref 0 and eio = ref 0 and other = ref 0 in
    let completed = ref 0 in
    let record t0 = function
      | Ok _ ->
          incr completed;
          lats := (Sim.Engine.now eng -. t0) :: !lats
      | Error e ->
          if e = Oskit.Errno.ENODEV then incr enodev
          else if e = Oskit.Errno.EIO then incr eio
          else incr other
    in
    let target = ref ops in
    (match cls with
    | `Noop ->
        Sim.Engine.spawn eng (fun () ->
            let app = M.spawn_app m k ~name:"noop" in
            match Oskit.Vfs.openf k app "/dev/null0" with
            | Error _ -> other := !other + ops
            | Ok fd ->
                for _ = 1 to ops do
                  Sim.Engine.wait 200.;
                  let t0 = Sim.Engine.now eng in
                  record t0 (Oskit.Vfs.ioctl k app fd ~cmd:M.null_ioctl ~arg:0L)
                done)
    | `Evdev ->
        (* each move injects a REL + SYN pair; count delivered events *)
        target := ops * 2;
        Devices.Evdev.start_mouse mouse ~rate_hz:2_000. ~moves:ops;
        Sim.Engine.spawn eng (fun () ->
            let app = M.spawn_app m k ~name:"evreader" in
            match Oskit.Vfs.openf k app "/dev/input/event0" with
            | Error _ -> other := !other + !target
            | Ok fd ->
                let buf = Oskit.Task.alloc_buf app 512 in
                let got = ref 0 in
                let bail = ref false in
                while !got < !target && not !bail do
                  let t0 = Sim.Engine.now eng in
                  match Oskit.Vfs.read k app fd ~buf ~len:512 with
                  | Ok n ->
                      got := !got + (n / Devices.Evdev.event_bytes);
                      lats := (Sim.Engine.now eng -. t0) :: !lats
                  | Error e ->
                      record t0 (Error e);
                      bail := true
                done;
                completed := !completed + !got)
    | `Netmap ->
        Sim.Engine.spawn eng (fun () ->
            let app = M.spawn_app m k ~name:"nm-sync" in
            match Oskit.Vfs.openf k app "/dev/netmap" with
            | Error _ -> other := !other + ops
            | Ok fd ->
                let arg = Oskit.Task.alloc_buf app 16 in
                (match
                   Oskit.Vfs.ioctl k app fd ~cmd:Devices.Netmap_drv.nioc_regif
                     ~arg:(Int64.of_int arg)
                 with
                | Ok _ | Error _ -> ());
                for _ = 1 to ops do
                  Sim.Engine.wait 200.;
                  let t0 = Sim.Engine.now eng in
                  record t0
                    (Oskit.Vfs.ioctl k app fd ~cmd:Devices.Netmap_drv.nioc_txsync
                       ~arg:0L)
                done));
    let outcome = ref None in
    if do_upgrade then
      Sim.Engine.spawn eng (fun () ->
          Sim.Engine.wait upgrade_at;
          outcome := Some (M.upgrade_driver_vm m));
    Sim.Engine.run eng;
    ( Sim.Engine.now eng,
      List.rev !lats,
      (!enodev, !eio, !other),
      !completed,
      !target,
      !outcome )
  in
  let max_lat lats = List.fold_left max 0. lats in
  let classes = [ ("noop ioctl", `Noop); ("evdev read", `Evdev); ("netmap sync", `Netmap) ] in
  let results =
    List.map
      (fun (label, cls) ->
        let t_a, lats_a, _, _, _, _ = run ~cls ~do_upgrade:false in
        let t_b, lats_b, _, _, _, _ = run ~cls ~do_upgrade:false in
        let deterministic = t_a = t_b && lats_a = lats_b in
        let _, lats_u, (enodev, eio, other), completed, target, outcome =
          run ~cls ~do_upgrade:true
        in
        (label, max_lat lats_a, max_lat lats_u, enodev, eio, other, completed,
         target, deterministic, outcome))
      classes
  in
  Report.table
    ~header:
      [ "op class"; "baseline max (us)"; "upgraded max (us)"; "stall (us)";
        "completed"; "ENODEV"; "EIO"; "no-upgrade runs" ]
    (List.map
       (fun (label, base, worst, enodev, eio, _other, completed, target, det, _) ->
         [
           label;
           Report.f1 base;
           Report.f1 worst;
           Report.f1 (worst -. base);
           Printf.sprintf "%d/%d" completed target;
           string_of_int enodev;
           string_of_int eio;
           (if det then "bit-identical" else "DIVERGED");
         ])
       results);
  (match results with
  | (_, _, _, _, _, _, _, _, _, Some (M.Upgraded s)) :: _ ->
      Report.note
        "upgrade phases (noop run): boot %.1f us (overlapped), blackout %.1f us = quiesce %.1f + checkpoint %.1f + swap %.1f + restore %.1f + resume %.1f"
        s.M.up_boot_us s.M.up_blackout_us s.M.up_quiesce_us s.M.up_checkpoint_us
        s.M.up_swap_us s.M.up_restore_us s.M.up_resume_us;
      Report.note
        "snapshot %d bytes; %d files restored (%d dropped), %d VMAs, %d parked ops replayed, %d mappings kept / %d dropped, %d grants revoked"
        s.M.up_checkpoint_bytes s.M.up_files_restored s.M.up_files_dropped
        s.M.up_vmas_restored s.M.up_parked_ops s.M.up_mappings_kept
        s.M.up_mappings_dropped s.M.up_grants_revoked
  | _ -> Report.note "upgrade did not complete as Upgraded — see JSON");
  Report.note
    "acceptance: 100%% completion, zero ENODEV/EIO across the upgrade; no-upgrade runs bit-identical";
  (* machine-readable record for CI *)
  let oc = open_out "BENCH_upgrade.json" in
  let row_json (label, base, worst, enodev, eio, other, completed, target, det, outcome) =
    let phases =
      match outcome with
      | Some (M.Upgraded s) ->
          Printf.sprintf
            {|, "blackout_us": %.3f, "boot_us": %.3f, "quiesce_us": %.3f, "checkpoint_us": %.3f, "swap_us": %.3f, "restore_us": %.3f, "resume_us": %.3f, "checkpoint_bytes": %d, "parked_ops": %d, "files_restored": %d, "files_dropped": %d|}
            s.M.up_blackout_us s.M.up_boot_us s.M.up_quiesce_us
            s.M.up_checkpoint_us s.M.up_swap_us s.M.up_restore_us s.M.up_resume_us
            s.M.up_checkpoint_bytes s.M.up_parked_ops s.M.up_files_restored
            s.M.up_files_dropped
      | _ -> {|, "upgraded": false|}
    in
    Printf.sprintf
      {|    {"class": "%s", "baseline_max_us": %.3f, "upgraded_max_us": %.3f, "stall_us": %.3f, "completed": %d, "target": %d, "enodev": %d, "eio": %d, "other_errors": %d, "deterministic": %b%s}|}
      label base worst (worst -. base) completed target enodev eio other det
      phases
  in
  Printf.fprintf oc
    {|{
  "experiment": "upgrade",
  "scale": %g,
  "classes": [
%s
  ]
}
|}
    !scale
    (String.concat ",\n" (List.map row_json results));
  close_out oc;
  Report.note "wrote BENCH_upgrade.json";
  (* hard acceptance gate — CI fails if the handoff was guest-visible *)
  List.iter
    (fun (label, _, _, enodev, eio, _, completed, target, det, _) ->
      if enodev > 0 || eio > 0 then
        failwith
          (Printf.sprintf "upgrade: %s saw %d ENODEV / %d EIO" label enodev eio);
      if not det then
        failwith
          (Printf.sprintf "upgrade: %s no-upgrade runs diverged" label);
      if label <> "netmap" && completed < target then
        failwith
          (Printf.sprintf "upgrade: %s completed %d/%d" label completed target))
    results

(* ------------------------------------------------------------------ *)
(* Hybrid notification + multi-op descriptors (ROADMAP item 2)         *)
(* ------------------------------------------------------------------ *)

(* NAPI-style hybrid notification: an interrupt wakes the idle side,
   which then stays in a bounded poll window while work keeps
   arriving, so back-to-back operations ride at polling cost without a
   dedicated polling CPU.  Multi-op descriptors pack several small
   file operations into one ring slot, amortising the remaining
   notification legs.  This experiment recomputes §6.1.1 and Figure 2
   under both mechanisms and gates CI on the results. *)

let notify () =
  Report.heading
    "Hybrid notification + multi-op descriptors — §6.1.1 / Figure 2 revisited";
  let errors = ref [] in
  let guard ~what f ~fallback =
    try f ()
    with exn ->
      errors := Printf.sprintf "%s: %s" what (Printexc.to_string exn) :: !errors;
      fallback
  in
  (* -- (a) §6.1.1 no-op latency across notification modes -- *)
  let noop_modes =
    [
      ("interrupts", Paradice.Config.default);
      ("hybrid", Paradice.Config.hybrid);
      ("polling", Paradice.Config.polling);
    ]
  in
  let noop_results =
    List.map
      (fun (name, cfg) ->
        let m, env = Setup.make ~devices:[ Setup.Null ] (Setup.Paradice cfg) in
        let avg =
          guard ~what:("noop/" ^ name) ~fallback:nan (fun () ->
              Workloads.Noop_bench.run env ~ops:(scaled 2000) ())
        in
        let g = List.hd (Paradice.Machine.guests m) in
        let _fwd, _jit, st = Paradice.Cvd_front.stats g.Paradice.Machine.frontend in
        (name, avg, st))
      noop_modes
  in
  Report.table
    ~header:
      [ "mode"; "added latency (us/op)"; "notify legs"; "poll pickups";
        "poll deliveries"; "dedicated poll CPUs" ]
    (List.map
       (fun (name, avg, st) ->
         [
           name;
           Report.f2 avg;
           string_of_int st.Paradice.Chan_pool.legs;
           string_of_int st.Paradice.Chan_pool.req_poll_pickups;
           string_of_int st.Paradice.Chan_pool.resp_poll_deliveries;
           (if name = "polling" then "2" else "0");
         ])
       noop_results);
  let noop_of name =
    let _, avg, _ = List.find (fun (n, _, _) -> n = name) noop_results in
    avg
  in
  Report.note
    "hybrid rides the poll window between back-to-back ops: polling-cost handoffs,";
  Report.note
    "      zero dedicated polling CPUs; the interrupt pair returns only after idle";
  (* -- (b) Figure 2 recomputed with multi-op descriptors -- *)
  let line_rate = 1.488 in
  let packets = scaled 20_000 in
  let ops_per_desc = 16 in
  let fig2_cols =
    [
      ("Paradice", Paradice.Config.default, false);
      ("Paradice+mop", Paradice.Config.default, true);
      ("Paradice(H)+mop", Paradice.Config.hybrid, true);
      ("Paradice(P)", Paradice.Config.polling, false);
    ]
  in
  let batches = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let grid =
    List.map
      (fun batch ->
        ( batch,
          List.map
            (fun (name, cfg, batched) ->
              guard
                ~what:(Printf.sprintf "fig2/%s/batch=%d" name batch)
                ~fallback:nan
                (fun () ->
                  let _m, env =
                    Setup.make ~devices:[ Setup.Netmap ] (Setup.Paradice cfg)
                  in
                  let r =
                    if batched then
                      Workloads.Netmap_pktgen.run_batched env ~packets ~batch
                        ~ops_per_desc ()
                    else Workloads.Netmap_pktgen.run env ~packets ~batch ()
                  in
                  r.Workloads.Netmap_pktgen.rate_mpps))
            fig2_cols ))
      batches
  in
  Report.table
    ~header:("batch" :: List.map (fun (n, _, _) -> n) fig2_cols)
    (List.map
       (fun (batch, rates) -> string_of_int batch :: List.map Report.f3 rates)
       grid);
  Report.note "line rate at 64B on 1GbE = 1.488 Mpps; +mop = %d txsyncs per descriptor"
    ops_per_desc;
  let crossover col =
    List.fold_left
      (fun acc (batch, rates) ->
        match acc with
        | Some _ -> acc
        | None ->
            if List.nth rates col >= 0.95 *. line_rate then Some batch else None)
      None grid
  in
  let crossovers = List.mapi (fun i (name, _, _) -> (name, crossover i)) fig2_cols in
  List.iter
    (fun (name, c) ->
      Report.note "crossover to line rate: %-16s %s" name
        (match c with Some b -> Printf.sprintf "batch >= %d" b | None -> "never"))
    crossovers;
  (* -- (c) trace tiling in every mode (noop, traced) -- *)
  let reconcile_rows =
    List.map
      (fun (name, cfg) ->
        let tracer = Obs.Trace.create () in
        let cfg = { cfg with Paradice.Config.tracer } in
        let _m, env = Setup.make ~devices:[ Setup.Null ] (Setup.Paradice cfg) in
        let (_ : float) =
          guard ~what:("reconcile/" ^ name) ~fallback:nan (fun () ->
              Workloads.Noop_bench.run env ~ops:(scaled 50) ())
        in
        (name, Obs.Trace.reconcile tracer, Obs.Trace.metrics tracer))
      noop_modes
  in
  let batch_reconcile =
    let tracer = Obs.Trace.create () in
    let cfg = { Paradice.Config.hybrid with Paradice.Config.tracer } in
    let _m, env = Setup.make ~devices:[ Setup.Netmap ] (Setup.Paradice cfg) in
    let (_ : Workloads.Netmap_pktgen.result) =
      guard ~what:"reconcile/hybrid+mop" (fun () ->
          Workloads.Netmap_pktgen.run_batched env ~packets:(scaled 2000) ~batch:8
            ~ops_per_desc ())
        ~fallback:
          { Workloads.Netmap_pktgen.rate_mpps = nan; packets = 0; elapsed_s = nan }
    in
    ("hybrid+mop", Obs.Trace.reconcile tracer, Obs.Trace.metrics tracer)
  in
  let reconcile_rows = reconcile_rows @ [ batch_reconcile ] in
  Report.table
    ~header:[ "mode (traced noop)"; "ops reconciled"; "max gap (us)" ]
    (List.map
       (fun (name, r, _) ->
         [
           name;
           string_of_int r.Obs.Trace.r_ops;
           Printf.sprintf "%.3f" r.Obs.Trace.r_max_gap_us;
         ])
       reconcile_rows);
  List.iter
    (fun (name, _, metrics) ->
      List.iter
        (fun (counter, count) ->
          if
            counter = "doorbell.req_suppressed"
            || counter = "doorbell.resp_suppressed"
            || counter = "poll.windows"
          then Report.note "%s: counter %s = %d" name counter count)
        (Obs.Metrics.counters metrics))
    reconcile_rows;
  Report.note
    "acceptance: stage spans (incl. hybrid handoffs, per-sub-op spans excluded)";
  Report.note "            tile each op exactly in every notification mode";
  (* machine-readable record for CI *)
  let oc = open_out "BENCH_notify.json" in
  let noop_json =
    String.concat ",\n"
      (List.map
         (fun (name, avg, st) ->
           Printf.sprintf
             {|    {"mode": "%s", "latency_us": %.3f, "legs": %d, "poll_pickups": %d, "poll_deliveries": %d}|}
             name avg st.Paradice.Chan_pool.legs
             st.Paradice.Chan_pool.req_poll_pickups
             st.Paradice.Chan_pool.resp_poll_deliveries)
         noop_results)
  in
  let fig2_json =
    String.concat ",\n"
      (List.map
         (fun (batch, rates) ->
           Printf.sprintf {|    {"batch": %d, %s}|} batch
             (String.concat ", "
                (List.map2
                   (fun (name, _, _) rate ->
                     Printf.sprintf {|"%s": %.3f|} name rate)
                   fig2_cols rates)))
         grid)
  in
  let crossover_json =
    String.concat ", "
      (List.map
         (fun (name, c) ->
           Printf.sprintf {|"%s": %s|} name
             (match c with Some b -> string_of_int b | None -> "null"))
         crossovers)
  in
  let reconcile_json =
    String.concat ",\n"
      (List.map
         (fun (name, r, _) ->
           Printf.sprintf
             {|    {"mode": "%s", "ops": %d, "max_gap_us": %.3f}|}
             name r.Obs.Trace.r_ops r.Obs.Trace.r_max_gap_us)
         reconcile_rows)
  in
  Printf.fprintf oc
    {|{
  "experiment": "notify",
  "scale": %g,
  "ops_per_desc": %d,
  "noop": [
%s
  ],
  "hybrid_over_polling": %.3f,
  "fig2": [
%s
  ],
  "crossover": {%s},
  "reconcile": [
%s
  ],
  "errors": [%s]
}
|}
    !scale ops_per_desc noop_json
    (noop_of "hybrid" /. noop_of "polling")
    fig2_json crossover_json reconcile_json
    (String.concat ", "
       (List.map (fun e -> Printf.sprintf "%S" e) !errors));
  close_out oc;
  Report.note "wrote BENCH_notify.json";
  (* hard acceptance gates — CI fails on any of these *)
  (match !errors with
  | [] -> ()
  | es -> failwith ("notify: op errors: " ^ String.concat "; " es));
  let hybrid_noop = noop_of "hybrid" and polling_noop = noop_of "polling" in
  if not (hybrid_noop <= 2. *. polling_noop) then
    failwith
      (Printf.sprintf "notify: hybrid noop %.2f us exceeds 2x polling %.2f us"
         hybrid_noop polling_noop);
  (match List.assoc "Paradice+mop" crossovers with
  | Some b when b <= 4 -> ()
  | Some b ->
      failwith
        (Printf.sprintf
           "notify: interrupt-mode crossover with multi-op descriptors at batch %d (> 4)"
           b)
  | None ->
      failwith
        "notify: interrupt-mode multi-op descriptors never reach line rate");
  List.iter
    (fun (name, r, _) ->
      if r.Obs.Trace.r_max_gap_us > 0.001 then
        failwith
          (Printf.sprintf "notify: %s trace tiling gap %.3f us" name
             r.Obs.Trace.r_max_gap_us))
    reconcile_rows

(* ------------------------------------------------------------------ *)
(* Fleet-scale sharded execution (ROADMAP item 1)                      *)
(* ------------------------------------------------------------------ *)

(* Hundreds of guest links served by a fleet of independent driver-VM
   shards running on parallel OCaml domains (Paradice.Fleet).  Shards
   share no simulated state, so fixed seeds give bit-identical
   per-shard simulated-time results whatever the domain count — the
   determinism gate — while wall-clock aggregate throughput scales
   with shards.  Tail latency (p99/p999) is aggregated across shards
   by exact histogram pooling (Sim.Stats.merge / Obs.Metrics.merge),
   and a Zipf-skewed offered load checks that per-guest isolation
   (rings + caps, §5.1) keeps the fleet fair. *)

let fleet () =
  let module FL = Workloads.Fleet_load in
  let module F = Paradice.Fleet in
  Report.heading "Fleet — sharded execution: scaling, tail latency, fairness";
  let seed = 0xF1EE7L in
  let guests = max 208 (scaled 256) in (* >= 200 links even under --quick *)
  let base_ops = scaled 40 in
  let cores = Domain.recommended_domain_count () in
  let uniform = FL.uniform_ops ~guests ~base:base_ops in
  Report.note "%d guest links, %d ops/guest, %d cores available" guests
    base_ops cores;

  (* -- wall-clock scaling: same offered load, more shards -- *)
  let shard_counts = [ 1; 2; 4; 8 ] in
  let timed_run ?domains specs =
    let t0 = Unix.gettimeofday () in
    let results = FL.run_fleet ?domains specs in
    (results, Unix.gettimeofday () -. t0)
  in
  let scaling =
    List.map
      (fun shards ->
        let specs = FL.make_specs ~shards ~seed ~ops:uniform () in
        let domains = max 1 (min shards cores) in
        let results, wall = timed_run ~domains specs in
        let ok = Array.fold_left (fun a r -> a + r.FL.r_ok) 0 results in
        let err = Array.fold_left (fun a r -> a + r.FL.r_err) 0 results in
        let merged =
          Sim.Stats.merge "fleet"
            (List.map (fun g -> g.FL.g_lat) (FL.all_guests results))
        in
        (shards, domains, results, wall, ok, err, merged))
      shard_counts
  in
  Report.table
    ~header:
      [ "shards"; "domains"; "wall s"; "ops/s"; "p50 us"; "p99 us"; "p999 us"; "errs" ]
    (List.map
       (fun (shards, domains, _, wall, ok, err, merged) ->
         [
           string_of_int shards; string_of_int domains; Report.f2 wall;
           Report.f1 (float_of_int ok /. wall);
           Report.f1 (Sim.Stats.median merged);
           Report.f1 (Sim.Stats.p99 merged);
           Report.f1 (Sim.Stats.p999 merged);
           string_of_int err;
         ])
       scaling);
  let wall_of n =
    let _, _, _, w, _, _, _ = List.find (fun (s, _, _, _, _, _, _) -> s = n) scaling in
    w
  in
  let speedup_4 = wall_of 1 /. wall_of 4 in
  Report.note "1 -> 4 shard wall-clock speedup: %.2fx (gate >= 3x needs >= 4 cores)"
    speedup_4;

  (* -- determinism: 4 shards on 1 domain vs all cores -- *)
  let specs4 = FL.make_specs ~shards:4 ~seed ~ops:uniform () in
  let seq4, _ = timed_run ~domains:1 specs4 in
  let _, _, par4, _, _, _, _ =
    List.find (fun (s, _, _, _, _, _, _) -> s = 4) scaling
  in
  let fingerprint (r : FL.result) =
    (r.FL.r_shard, r.FL.r_ok, r.FL.r_err, r.FL.r_digest, r.FL.r_sim_end_us)
  in
  let deterministic =
    Array.for_all2 (fun a b -> fingerprint a = fingerprint b) seq4 par4
  in
  Report.note "1-domain vs %d-domain per-shard results: %s"
    (max 1 (min 4 cores))
    (if deterministic then "bit-identical" else "DIVERGED");

  (* -- per-shard metric namespaces -> one fleet registry -- *)
  let agg = Obs.Metrics.create () in
  Array.iter
    (fun (r : FL.result) ->
      Obs.Metrics.merge ~into:agg
        ~prefix:(Printf.sprintf "shard%d." r.FL.r_shard)
        r.FL.r_metrics;
      Obs.Metrics.merge ~into:agg r.FL.r_metrics)
    par4;
  Report.note "merged metrics: fleet ops_ok=%d (shard0 ops_ok=%d)"
    (Obs.Metrics.count agg "fleet.ops_ok")
    (Obs.Metrics.count agg "shard0.fleet.ops_ok");

  (* -- fairness under Zipf-skewed offered load (4 shards) -- *)
  let zipf = FL.zipf_ops ~guests ~base:base_ops ~alpha:1.0 in
  let zres, _ = timed_run (FL.make_specs ~shards:4 ~seed ~ops:zipf ()) in
  let fairness = FL.fairness zres in
  let zerr = Array.fold_left (fun a r -> a + r.FL.r_err) 0 zres in
  Report.note
    "zipf(1.0) offered load: per-guest mean-latency spread %.2fx (1.0 = fair)"
    fairness;

  (* -- CI artifact -- *)
  let oc = open_out "BENCH_fleet.json" in
  Printf.fprintf oc
    {|{
  "experiment": "fleet",
  "scale": %g,
  "cores": %d,
  "guests": %d,
  "ops_per_guest": %d,
  "scaling": [
%s
  ],
  "speedup_1_to_4": %.3f,
  "deterministic_across_domains": %b,
  "zipf_fairness": %.3f,
  "zipf_errors": %d
}
|}
    !scale cores guests base_ops
    (String.concat ",\n"
       (List.map
          (fun (shards, domains, _, wall, ok, err, merged) ->
            Printf.sprintf
              {|    {"shards": %d, "domains": %d, "wall_s": %.3f, "ops": %d, "ops_per_sec": %.1f, "p50_us": %.3f, "p99_us": %.3f, "p999_us": %.3f, "errors": %d}|}
              shards domains wall ok
              (float_of_int ok /. wall)
              (Sim.Stats.median merged) (Sim.Stats.p99 merged)
              (Sim.Stats.p999 merged) err)
          scaling))
    speedup_4 deterministic fairness zerr;
  close_out oc;
  Report.note "wrote BENCH_fleet.json";

  (* hard acceptance gates — CI fails on any of these *)
  if guests < 200 then
    failwith (Printf.sprintf "fleet: only %d guest links (need >= 200)" guests);
  List.iter
    (fun (shards, _, _, _, ok, err, _) ->
      if err > 0 then
        failwith (Printf.sprintf "fleet: %d errored ops at %d shards" err shards);
      if ok <> guests * base_ops then
        failwith
          (Printf.sprintf "fleet: completed %d/%d ops at %d shards" ok
             (guests * base_ops) shards))
    scaling;
  if not deterministic then
    failwith "fleet: per-shard results depend on the domain count";
  if zerr > 0 then
    failwith (Printf.sprintf "fleet: %d errored ops under zipf load" zerr);
  if Float.is_nan fairness || fairness > 3.0 then
    failwith
      (Printf.sprintf "fleet: zipf fairness %.2f exceeds 3.0" fairness);
  if cores >= 4 then begin
    if speedup_4 < 3.0 then
      failwith
        (Printf.sprintf "fleet: 1->4 shard speedup %.2fx below 3x on %d cores"
           speedup_4 cores)
  end
  else
    Report.note "scaling gate skipped: only %d core(s) available" cores
