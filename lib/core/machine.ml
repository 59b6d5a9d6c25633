(** Machine assembly: a complete simulated host.

    Builds the Figure 1(c) topology — hypervisor, driver VM with the
    real drivers and assigned devices, guest VMs with CVD frontends —
    and also the paper's comparison configurations:
    - {b Native}: the application runs in the same kernel as the
      driver, no virtualization costs;
    - {b Device_assignment}: one VM owns the device directly (interrupt
      injection overhead, no sharing);
    - {b Paradice}: the full system, per the given {!Config}.

    Workloads only ever see a [Kernel.t] + device paths, so the same
    workload code runs unchanged against every configuration — the
    point of the device-file boundary. *)

open Oskit

type mode = Native | Device_assignment | Paradice

type guest = {
  vm : Hypervisor.Vm.t;
  kernel : Kernel.t;
  frontend : Cvd_front.t;
  mutable link : Cvd_back.guest_link; (* replaced on driver-VM reboot *)
  pci : Virt_pci.t;
}

(* Everything needed to replay an export onto a late-added guest. *)
type export_record = {
  path : string;
  cls : string;
  driver : string;
  exclusive : bool;
  kinds : Os_flavor.op_kind list;
  entries : Analyzer.Extract.t option;
  info : Device_info.t;
}

type gpu_attachment = {
  gpu : Devices.Gpu_hw.t;
  radeon : Devices.Radeon_drv.t;
  gpu_iommu : Memory.Iommu.t;
  mc_spn : int;
  mutable isolation : Hypervisor.Region.t option;
}

(* A second live driver VM serving the same exports (session-migration
   target). *)
type replica = {
  rep_vm : Hypervisor.Vm.t;
  rep_kernel : Kernel.t;
  rep_backend : Cvd_back.t;
}

type t = {
  mode : mode;
  config : Config.t;
  engine : Sim.Engine.t;
  phys : Memory.Phys_mem.t;
  hyp : Hypervisor.Hyp.t;
  (* the driver VM is replaceable: a crash kills it, a reboot builds a
     fresh VM + kernel + backend in its place (§7.2) *)
  mutable driver_vm : Hypervisor.Vm.t;
  mutable driver_kernel : Kernel.t;
  mutable backend : Cvd_back.t;
  driver_mem_mib : int;
  driver_flavor : Os_flavor.t;
  mutable driver_generation : int;
  mutable last_killed_at : float;
  policy : Policy.t;
  mutable exports : export_record list;
  mutable guests : guest list;
  mutable replicas : replica list;
  mutable gpu : gpu_attachment option;
  mutable mouse : Devices.Evdev.t option;
  mutable keyboard : Devices.Evdev.t option;
  mutable camera : Devices.V4l2_drv.t option;
  mutable audio : Devices.Pcm_drv.t option;
  mutable netmap : Devices.Netmap_drv.t option;
}

let mib = 1024 * 1024

(** Kill the current driver VM: the hypervisor rejects its memory
    operations from now on and the backend stops serving.  [poison]
    (default true) wakes everyone blocked on its channels; false models
    a silent death only deadlines or the watchdog detect.  Idempotent;
    safe from engine callbacks. *)
let kill_driver_vm ?(poison = true) t =
  if not (Cvd_back.is_killed t.backend) then begin
    t.last_killed_at <- Sim.Engine.now t.engine;
    Hypervisor.Hyp.kill_vm t.hyp t.driver_vm;
    Cvd_back.kill ~poison t.backend
  end

let last_killed_at t = t.last_killed_at
let driver_generation t = t.driver_generation

let create ?(mode = Paradice) ?(config = Config.default) ?(driver_mem_mib = 256)
    ?(flavor = Os_flavor.Linux_3_2_0) () =
  let engine = Sim.Engine.create () in
  let phys = Memory.Phys_mem.create () in
  let hyp = Hypervisor.Hyp.create phys in
  Hypervisor.Hyp.set_validation hyp config.Config.validate_grants;
  (* wire the span tracer to this machine's clock and hypervisor; the
     disabled sink makes both calls no-ops *)
  Obs.Trace.attach_clock config.Config.tracer (fun () -> Sim.Engine.now engine);
  Hypervisor.Hyp.set_tracer hyp config.Config.tracer;
  let driver_vm =
    Hypervisor.Hyp.create_vm hyp ~name:"driver-vm" ~kind:Hypervisor.Vm.Driver
      ~mem_bytes:(driver_mem_mib * mib)
  in
  let driver_kernel = Kernel.create ~engine ~vm:driver_vm ~flavor () in
  let policy = Policy.create () in
  let backend = Cvd_back.create ~kernel:driver_kernel ~hyp ~config ~policy in
  let t =
    {
      mode;
      config;
      engine;
      phys;
      hyp;
      driver_vm;
      driver_kernel;
      backend;
      driver_mem_mib;
      driver_flavor = flavor;
      driver_generation = 0;
      last_killed_at = nan;
      policy;
      exports = [];
      guests = [];
      replicas = [];
      gpu = None;
      mouse = None;
      keyboard = None;
      camera = None;
      audio = None;
      netmap = None;
    }
  in
  (* arm the mid-RPC crash site: when "cvd.crash" fires in a backend
     worker, the driver VM actually dies *)
  (match config.Config.injector with
  | Some inj ->
      Sim.Fault_inject.on_fire inj ~key:Cvd_back.site_crash (fun () ->
          kill_driver_vm t)
  | None -> ());
  t

let engine t = t.engine
let hyp t = t.hyp
let driver_kernel t = t.driver_kernel
let policy t = t.policy
let config t = t.config
let guests t = List.rev t.guests

(* Extra interrupt-delivery latency the mode imposes on assigned
   devices (interrupt injection under device assignment, §6.1.5). *)
let irq_extra t =
  match t.mode with
  | Native -> 0.
  | Device_assignment | Paradice -> t.config.Config.da_irq_extra_us

(* ------------------------------------------------------------------ *)
(* Guests                                                              *)
(* ------------------------------------------------------------------ *)

let install_export guest (e : export_record) =
  let (_ : Defs.device) =
    Cvd_front.export guest.frontend ~path:e.path ~cls:e.cls ~driver:e.driver
      ~exclusive:e.exclusive ?entries:e.entries ~kinds:e.kinds ()
  in
  Device_info.install e.info ~guest_kernel:guest.kernel ~pci_bus:guest.pci
    ~dev_path:e.path

let add_guest t ?(name = "guest") ?(mem_mib = 128)
    ?(flavor = Os_flavor.Linux_3_2_0) () =
  if t.mode <> Paradice then
    invalid_arg "Machine.add_guest: only the Paradice mode has guest VMs";
  let vm =
    Hypervisor.Hyp.create_vm t.hyp ~name ~kind:Hypervisor.Vm.Guest
      ~mem_bytes:(mem_mib * mib)
  in
  let kernel = Kernel.create ~engine:t.engine ~vm ~flavor () in
  let link = Cvd_back.connect t.backend ~guest_vm:vm in
  let frontend =
    Cvd_front.create ~kernel ~hyp:t.hyp ~guest_vm:vm ~pool:link.Cvd_back.pool
      ~config:t.config
  in
  let guest = { vm; kernel; frontend; link; pci = Virt_pci.create () } in
  t.guests <- guest :: t.guests;
  (* replay existing exports into the new guest *)
  List.iter (install_export guest) (List.rev t.exports);
  (* first guest becomes foreground *)
  if Policy.foreground t.policy = None then
    Policy.set_foreground t.policy (Hypervisor.Vm.id vm);
  guest

(** The kernel an application should run against in this mode: the
    guest's for Paradice, the device-owning kernel otherwise. *)
let app_kernel t =
  match (t.mode, t.guests) with
  | Paradice, g :: _ -> g.kernel
  | Paradice, [] -> invalid_arg "Machine.app_kernel: add a guest first"
  | (Native | Device_assignment), _ -> t.driver_kernel

(** Spawn an application task in [kernel], registered with the
    hypervisor so forwarded operations can name its address space. *)
let spawn_app t kernel ~name =
  let task = Kernel.spawn_task kernel ~name in
  Hypervisor.Hyp.register_process t.hyp (Kernel.vm kernel) ~pid:task.Defs.pid
    ~pt:task.Defs.pt;
  task

let register_export t e =
  Cvd_back.export t.backend e.path;
  t.exports <- e :: t.exports;
  List.iter (fun g -> install_export g e) t.guests

(* ------------------------------------------------------------------ *)
(* Driver-VM crash recovery (§7.2)                                     *)
(* ------------------------------------------------------------------ *)

(** Reboot a killed driver VM: after [Config.driver_reboot_us] of
    simulated boot time, a fresh VM/kernel/backend takes over, the
    driver re-probes its devices (each export reappears in the new
    devfs with no openers), and every guest is reconnected over a
    fresh channel pool.  Guests' previously-open virtual files stay
    stale — applications must reopen them — but new opens succeed
    immediately.  Process context. *)
let reboot_driver_vm t =
  if not (Cvd_back.is_killed t.backend) then
    invalid_arg "Machine.reboot_driver_vm: driver VM is not dead";
  if t.config.Config.driver_reboot_us > 0. then
    Sim.Engine.wait t.config.Config.driver_reboot_us;
  t.driver_generation <- t.driver_generation + 1;
  let old_devfs = Kernel.devfs t.driver_kernel in
  let vm =
    Hypervisor.Hyp.create_vm t.hyp
      ~name:(Printf.sprintf "driver-vm-%d" t.driver_generation)
      ~kind:Hypervisor.Vm.Driver
      ~mem_bytes:(t.driver_mem_mib * mib)
  in
  let kernel = Kernel.create ~engine:t.engine ~vm ~flavor:t.driver_flavor () in
  let backend = Cvd_back.create ~kernel ~hyp:t.hyp ~config:t.config ~policy:t.policy in
  t.driver_vm <- vm;
  t.driver_kernel <- kernel;
  t.backend <- backend;
  (* the rebooted driver re-probes its hardware: the same device models
     reappear in the fresh devfs, with every driver-side open gone *)
  List.iter
    (fun e ->
      (match Devfs.lookup old_devfs e.path with
      | Some dev ->
          dev.Defs.open_count <- 0;
          Devfs.register (Kernel.devfs kernel) dev
      | None -> ());
      Cvd_back.export backend e.path)
    (List.rev t.exports);
  (* reconnect every guest: fresh pool and workers, frontend faulted
     (in case it had not yet noticed a silent death) then reattached *)
  List.iter
    (fun g ->
      let link = Cvd_back.connect backend ~guest_vm:g.vm in
      g.link <- link;
      Cvd_front.fault_session g.frontend ~reason:"driver VM rebooted";
      Cvd_front.reattach g.frontend ~pool:link.Cvd_back.pool)
    t.guests

(* ------------------------------------------------------------------ *)
(* Live driver-VM operations: hot upgrade and session migration        *)
(* ------------------------------------------------------------------ *)

let site_upgrade_crash_checkpoint = "upgrade.crash_checkpoint"
let site_upgrade_crash_restore = "upgrade.crash_restore"
let site_migrate_crash_checkpoint = "migrate.crash_checkpoint"
let site_migrate_crash_transfer = "migrate.crash_transfer"
let site_migrate_crash_restore = "migrate.crash_restore"

let fault_check t key =
  match t.config.Config.injector with
  | None -> ()
  | Some inj -> Sim.Fault_inject.check inj ~key

(* Boot a fresh driver VM serving the same exports.  Unlike the crash
   reboot, open counts are NOT reset: the incumbent's opens are still
   live, and the handoff closes them one side at a time. *)
let boot_driver ~name t =
  if t.config.Config.driver_reboot_us > 0. then
    Sim.Engine.wait t.config.Config.driver_reboot_us;
  let vm =
    Hypervisor.Hyp.create_vm t.hyp ~name ~kind:Hypervisor.Vm.Driver
      ~mem_bytes:(t.driver_mem_mib * mib)
  in
  let kernel = Kernel.create ~engine:t.engine ~vm ~flavor:t.driver_flavor () in
  let backend = Cvd_back.create ~kernel ~hyp:t.hyp ~config:t.config ~policy:t.policy in
  (* the replacement probes the same hardware: the same device records
     appear in its devfs *)
  let cur_devfs = Kernel.devfs t.driver_kernel in
  List.iter
    (fun e ->
      (match Devfs.lookup cur_devfs e.path with
      | Some dev -> Devfs.register (Kernel.devfs kernel) dev
      | None -> ());
      Cvd_back.export backend e.path)
    (List.rev t.exports);
  (vm, kernel, backend)

(* Drain the link's rings: wait (bounded by [Config.upgrade_drain_us])
   for in-flight descriptors to complete; stragglers are parked by
   channel retirement and replayed on the successor pool. *)
let drain_links t links =
  let now () = Sim.Engine.now t.engine in
  let deadline = now () +. t.config.Config.upgrade_drain_us in
  let busy () =
    List.exists (fun link -> not (Chan_pool.quiescent link.Cvd_back.pool)) links
  in
  while busy () && now () < deadline do
    Sim.Engine.wait 1.0
  done

(* Post-restore hypervisor reconciliation: prove every surviving
   cross-VM mapping and grant group against the snapshot, dropping
   anything the successor cannot re-derive.  Charged like the crash
   teardown: one hypercall per examined mapping plus the sweep. *)
let reconcile_hyp t ~guest_vm ~(snap : Snapshot.link_snap) =
  let kept, dropped = Hypervisor.Hyp.revalidate_vm_mappings t.hyp ~target:guest_vm in
  let revoked =
    match Hypervisor.Hyp.grant_table_of t.hyp guest_vm with
    | Some table -> Hypervisor.Grant_table.verify_snapshot table snap.Snapshot.ls_grants
    | None -> 0
  in
  Sim.Engine.wait
    (float_of_int (1 + kept + dropped + revoked) *. t.config.Config.hypercall_us);
  (kept, dropped, revoked)

type upgrade_stats = {
  up_generation : int;
  up_boot_us : float;  (* overlapped with live service, outside the blackout *)
  up_blackout_us : float;
  up_quiesce_us : float;
  up_checkpoint_us : float;
  up_swap_us : float;
  up_restore_us : float;
  up_resume_us : float;
  up_checkpoint_bytes : int;
  up_parked_ops : int;
  up_files_restored : int;
  up_files_dropped : int;
  up_vmas_restored : int;
  up_fasync_rearmed : int;
  up_mappings_kept : int;
  up_mappings_dropped : int;
  up_grants_revoked : int;
}

type upgrade_outcome =
  | Upgraded of upgrade_stats
  | Upgrade_degraded_reboot
      (* the incumbent was (or died while the replacement booted) dead:
         fell back to crash recovery *)
  | Upgrade_aborted of string
      (* crash before the point of no return: replacement discarded,
         incumbent kept serving *)
  | Upgrade_failed_dead of string
      (* crash after the incumbent was gone: guests fault as on a
         driver-VM crash; [reboot_driver_vm] recovers *)

let upgrade_driver_vm t =
  if Cvd_back.is_killed t.backend then begin
    reboot_driver_vm t;
    Upgrade_degraded_reboot
  end
  else begin
    let tracer = t.config.Config.tracer in
    let now () = Sim.Engine.now t.engine in
    let trace = Obs.Trace.mint_id tracer in
    (* overlapped boot: the successor boots while the incumbent keeps
       serving — none of this time is guest-visible *)
    let boot_began = now () in
    let boot_sp =
      Obs.Trace.span_begin tracer ~trace ~lane:Obs.Trace.Machine ~cat:"phase"
        ~name:"upgrade:boot" ()
    in
    let generation = t.driver_generation + 1 in
    let new_vm, new_kernel, new_backend =
      boot_driver ~name:(Printf.sprintf "driver-vm-%d" generation) t
    in
    Obs.Trace.span_end tracer boot_sp;
    let boot_us = now () -. boot_began in
    if Cvd_back.is_killed t.backend then begin
      (* the incumbent died under us: this is a crash now, not an
         upgrade — discard the replacement and recover *)
      Hypervisor.Hyp.kill_vm t.hyp new_vm;
      Cvd_back.kill new_backend;
      reboot_driver_vm t;
      Upgrade_degraded_reboot
    end
    else begin
      (* only sessions living on the incumbent move; guests migrated to
         a replica are untouched *)
      let guests =
        List.filter (fun g -> Cvd_back.has_link t.backend g.link) (List.rev t.guests)
      in
      let parked_before =
        List.fold_left (fun acc g -> acc + Cvd_front.ops_parked g.frontend) 0 guests
      in
      let blackout_began = now () in
      let op_sp =
        Obs.Trace.span_begin tracer ~trace ~lane:Obs.Trace.Machine ~cat:"op"
          ~name:"upgrade" ()
      in
      let stage name f =
        let sp =
          Obs.Trace.span_begin tracer ~trace ~lane:Obs.Trace.Machine ~cat:"stage"
            ~name ()
        in
        match f () with
        | v ->
            Obs.Trace.span_end tracer sp;
            v
        | exception e ->
            Obs.Trace.span_end ~status:"error" tracer sp;
            raise e
      in
      (* -- quiesce: frontends stop issuing, rings drain -- *)
      let quiesce_began = now () in
      stage "upgrade:quiesce" (fun () ->
          List.iter
            (fun g ->
              Cvd_front.suspend_watchdog g.frontend;
              Cvd_front.quiesce g.frontend)
            guests;
          drain_links t (List.map (fun g -> g.link) guests));
      let quiesce_us = now () -. quiesce_began in
      (* -- checkpoint: encode every session through the wire format -- *)
      let checkpoint_began = now () in
      match
        stage "upgrade:checkpoint" (fun () ->
            List.map
              (fun g ->
                fault_check t site_upgrade_crash_checkpoint;
                let blob =
                  Snapshot.encode (Cvd_back.checkpoint_link t.backend g.link)
                in
                Sim.Engine.wait t.config.Config.marshal_us;
                (g, blob))
              guests)
      with
      | exception Sim.Fault_inject.Injected key ->
          (* before the point of no return: the incumbent never stopped
             being correct — discard the replacement and resume on it *)
          Hypervisor.Hyp.kill_vm t.hyp new_vm;
          Cvd_back.kill new_backend;
          List.iter
            (fun g ->
              Cvd_front.resume g.frontend;
              Cvd_front.resume_watchdog g.frontend)
            guests;
          Obs.Trace.span_end ~status:"error:aborted" tracer op_sp;
          Upgrade_aborted key
      | blobs -> (
          let checkpoint_us = now () -. checkpoint_began in
          let checkpoint_bytes =
            List.fold_left (fun a (_, b) -> a + String.length b) 0 blobs
          in
          (* -- swap: point of no return.  Retire (not crash) the old
             transport, close the incumbent's opens, kill it, install
             the successor.  Deliberately not [kill_driver_vm]: a
             planned swap is not a crash and must not stamp
             [last_killed_at]. -- *)
          let swap_began = now () in
          stage "upgrade:swap" (fun () ->
              List.iter
                (fun (g, _) ->
                  Chan_pool.retire g.link.Cvd_back.pool;
                  Cvd_back.release_link_files t.backend g.link)
                blobs;
              Hypervisor.Hyp.kill_vm t.hyp t.driver_vm;
              Cvd_back.kill ~poison:false t.backend;
              t.driver_vm <- new_vm;
              t.driver_kernel <- new_kernel;
              t.backend <- new_backend;
              t.driver_generation <- generation;
              (* the kill_vm hypercall *)
              Sim.Engine.wait t.config.Config.hypercall_us);
          let swap_us = now () -. swap_began in
          (* -- restore: decode, re-validate, re-open on the successor -- *)
          let restore_began = now () in
          match
            stage "upgrade:restore" (fun () ->
                List.map
                  (fun (g, blob) ->
                    let snap = Snapshot.decode blob in
                    Sim.Engine.wait t.config.Config.marshal_us;
                    let link, rstats =
                      Cvd_back.restore_link new_backend ~snap ~guest_vm:g.vm
                        ~fail_site:site_upgrade_crash_restore ()
                    in
                    g.link <- link;
                    let kept, dropped, revoked =
                      reconcile_hyp t ~guest_vm:g.vm ~snap
                    in
                    (rstats, kept, dropped, revoked))
                  blobs)
          with
          | exception Sim.Fault_inject.Injected key ->
              (* after the point of no return: the successor died with
                 the incumbent already gone.  Degrade to crash
                 semantics: guests fault, files stale, reboot
                 recovers.  Spans must close before [fault_session]'s
                 [abort_open] sweep. *)
              Obs.Trace.span_end ~status:"error:failed" tracer op_sp;
              kill_driver_vm t;
              List.iter
                (fun g ->
                  Cvd_front.fault_session g.frontend
                    ~reason:("upgrade failed: " ^ key);
                  Cvd_front.resume_watchdog g.frontend)
                guests;
              Upgrade_failed_dead key
          | per_guest ->
              let restore_us = now () -. restore_began in
              (* -- resume: wake parked operations onto the successor -- *)
              let resume_began = now () in
              stage "upgrade:resume" (fun () ->
                  List.iter
                    (fun g ->
                      Cvd_front.resume ~pool:g.link.Cvd_back.pool g.frontend;
                      Cvd_front.resume_watchdog g.frontend)
                    guests);
              Obs.Trace.span_end tracer op_sp;
              let resume_us = now () -. resume_began in
              let parked_after =
                List.fold_left
                  (fun acc g -> acc + Cvd_front.ops_parked g.frontend)
                  0 guests
              in
              let sum f = List.fold_left (fun a x -> a + f x) 0 per_guest in
              Upgraded
                {
                  up_generation = generation;
                  up_boot_us = boot_us;
                  up_blackout_us = now () -. blackout_began;
                  up_quiesce_us = quiesce_us;
                  up_checkpoint_us = checkpoint_us;
                  up_swap_us = swap_us;
                  up_restore_us = restore_us;
                  up_resume_us = resume_us;
                  up_checkpoint_bytes = checkpoint_bytes;
                  up_parked_ops = parked_after - parked_before;
                  up_files_restored =
                    sum (fun (r, _, _, _) -> r.Cvd_back.rs_files);
                  up_files_dropped =
                    sum (fun (r, _, _, _) -> r.Cvd_back.rs_dropped);
                  up_vmas_restored = sum (fun (r, _, _, _) -> r.Cvd_back.rs_vmas);
                  up_fasync_rearmed =
                    sum (fun (r, _, _, _) -> r.Cvd_back.rs_fasync);
                  up_mappings_kept = sum (fun (_, k, _, _) -> k);
                  up_mappings_dropped = sum (fun (_, _, d, _) -> d);
                  up_grants_revoked = sum (fun (_, _, _, r) -> r);
                })
    end
  end

(* ------------------------------------------------------------------ *)
(* Session migration between live driver VMs                           *)
(* ------------------------------------------------------------------ *)

let replicas t = List.rev t.replicas

(** Boot a second live driver VM serving the same exports — a
    migration target.  Process context (boot takes
    [Config.driver_reboot_us]). *)
let spawn_driver_replica ?name t =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "driver-vm-replica-%d" (List.length t.replicas + 1)
  in
  let rep_vm, rep_kernel, rep_backend = boot_driver ~name t in
  let rep = { rep_vm; rep_kernel; rep_backend } in
  t.replicas <- rep :: t.replicas;
  rep

(* Which live backend currently serves this link. *)
let backend_of_link t link =
  let all = t.backend :: List.map (fun r -> r.rep_backend) t.replicas in
  List.find_opt
    (fun b -> (not (Cvd_back.is_killed b)) && Cvd_back.has_link b link)
    all

type migrate_stats = {
  mg_blackout_us : float;
  mg_checkpoint_bytes : int;
  mg_files_restored : int;
  mg_files_dropped : int;
  mg_vmas_restored : int;
  mg_fasync_rearmed : int;
  mg_mappings_kept : int;
  mg_mappings_dropped : int;
  mg_grants_revoked : int;
}

type migrate_outcome =
  | Migrated of migrate_stats
  | Migrate_aborted of string
      (* crash before cutover: session untouched on the source *)
  | Migrate_failed_back of string * migrate_stats
      (* destination crashed mid-restore: the same snapshot was
         restored back onto the source — the session lands whole on
         exactly one side *)

let migrate_guest t g ~dst =
  let src =
    match backend_of_link t g.link with
    | Some b -> b
    | None -> invalid_arg "Machine.migrate_guest: guest has no live link"
  in
  if src == dst then invalid_arg "Machine.migrate_guest: session already there";
  if Cvd_back.is_killed dst then
    invalid_arg "Machine.migrate_guest: destination driver VM is dead";
  let tracer = t.config.Config.tracer in
  let now () = Sim.Engine.now t.engine in
  let trace = Obs.Trace.mint_id tracer in
  let blackout_began = now () in
  let op_sp =
    Obs.Trace.span_begin tracer ~trace ~lane:Obs.Trace.Machine ~cat:"op"
      ~name:"migrate" ()
  in
  let stage name f =
    let sp =
      Obs.Trace.span_begin tracer ~trace ~lane:Obs.Trace.Machine ~cat:"stage" ~name
        ()
    in
    match f () with
    | v ->
        Obs.Trace.span_end tracer sp;
        v
    | exception e ->
        Obs.Trace.span_end ~status:"error" tracer sp;
        raise e
  in
  stage "migrate:quiesce" (fun () ->
      Cvd_front.suspend_watchdog g.frontend;
      Cvd_front.quiesce g.frontend;
      drain_links t [ g.link ]);
  let soft_abort key =
    (* the source never stopped holding the session: just resume *)
    Cvd_front.resume g.frontend;
    Cvd_front.resume_watchdog g.frontend;
    Obs.Trace.span_end ~status:"error:aborted" tracer op_sp;
    Migrate_aborted key
  in
  match
    stage "migrate:checkpoint" (fun () ->
        fault_check t site_migrate_crash_checkpoint;
        let blob = Snapshot.encode (Cvd_back.checkpoint_link src g.link) in
        Sim.Engine.wait t.config.Config.marshal_us;
        blob)
  with
  | exception Sim.Fault_inject.Injected key -> soft_abort key
  | blob -> (
      match
        stage "migrate:transfer" (fun () ->
            fault_check t site_migrate_crash_transfer;
            let snap = Snapshot.decode blob in
            Sim.Engine.wait t.config.Config.marshal_us;
            snap)
      with
      | exception Sim.Fault_inject.Injected key -> soft_abort key
      | snap -> (
          let old_link = g.link in
          (* cutover: from here the source's copy is gone *)
          stage "migrate:cutover" (fun () ->
              Chan_pool.retire old_link.Cvd_back.pool;
              Cvd_back.release_link_files src old_link;
              Cvd_back.detach_link src old_link);
          let finish link (rstats : Cvd_back.restore_stats) =
            g.link <- link;
            let kept, dropped, revoked =
              stage "migrate:reconcile" (fun () ->
                  reconcile_hyp t ~guest_vm:g.vm ~snap)
            in
            stage "migrate:resume" (fun () ->
                Cvd_front.resume ~pool:link.Cvd_back.pool g.frontend;
                Cvd_front.resume_watchdog g.frontend);
            {
              mg_blackout_us = now () -. blackout_began;
              mg_checkpoint_bytes = String.length blob;
              mg_files_restored = rstats.Cvd_back.rs_files;
              mg_files_dropped = rstats.Cvd_back.rs_dropped;
              mg_vmas_restored = rstats.Cvd_back.rs_vmas;
              mg_fasync_rearmed = rstats.Cvd_back.rs_fasync;
              mg_mappings_kept = kept;
              mg_mappings_dropped = dropped;
              mg_grants_revoked = revoked;
            }
          in
          match
            stage "migrate:restore" (fun () ->
                Cvd_back.restore_link dst ~snap ~guest_vm:g.vm
                  ~fail_site:site_migrate_crash_restore ())
          with
          | link, rstats ->
              let stats = finish link rstats in
              Obs.Trace.span_end tracer op_sp;
              Migrated stats
          | exception Sim.Fault_inject.Injected key ->
              (* the destination crashed mid-restore and already tore
                 its partial copy down; restore the same snapshot back
                 onto the source so the session lands whole on exactly
                 one side *)
              let link, rstats =
                stage "migrate:restore_back" (fun () ->
                    Cvd_back.restore_link src ~snap ~guest_vm:g.vm ())
              in
              let stats = finish link rstats in
              Obs.Trace.span_end ~status:"error:failed_back" tracer op_sp;
              Migrate_failed_back (key, stats)))

(* ------------------------------------------------------------------ *)
(* Device attachment                                                   *)
(* ------------------------------------------------------------------ *)

let map_bar vm ~spa ~pages ~perms =
  let base_gpa = Memory.Allocator.reserve_unused_range vm.Hypervisor.Vm.gpa_alloc pages in
  Memory.Ept.map_range (Hypervisor.Vm.ept vm) ~gpa:base_gpa ~spa ~pages ~perms;
  base_gpa

let attach_gpu t ?(vram_mib = 64) () =
  if t.gpu <> None then invalid_arg "Machine.attach_gpu: already attached";
  let vram_pages = vram_mib * mib / Memory.Addr.page_size in
  let gpu_iommu = Memory.Iommu.create ~name:"gpu-iommu" in
  let costs =
    { Devices.Gpu_hw.default_costs with
      Devices.Gpu_hw.irq_latency_us =
        Devices.Gpu_hw.default_costs.Devices.Gpu_hw.irq_latency_us +. irq_extra t }
  in
  let gpu = Devices.Gpu_hw.create t.engine t.phys ~iommu:gpu_iommu ~vram_pages ~costs () in
  let bar_gpa =
    map_bar t.driver_vm ~spa:(Devices.Gpu_hw.vram_base gpu) ~pages:vram_pages
      ~perms:Memory.Perm.rw
  in
  let mc_spn = Devices.Mem_ctrl.install_mmio (Devices.Gpu_hw.mem_ctrl gpu) t.phys in
  let mc_mmio_gpa =
    map_bar t.driver_vm ~spa:(Memory.Addr.of_pfn mc_spn) ~pages:1 ~perms:Memory.Perm.rw
  in
  let radeon =
    Devices.Radeon_drv.create ~kernel:t.driver_kernel ~gpu ~iommu:gpu_iommu ~bar_gpa
      ~mc_mmio_gpa
  in
  Devices.Radeon_drv.init_native radeon;
  let (_ : Defs.device) = Devices.Radeon_drv.register radeon in
  Devices.Gpu_hw.start gpu;
  let att = { gpu; radeon; gpu_iommu; mc_spn; isolation = None } in
  t.gpu <- Some att;
  register_export t
    {
      path = "/dev/dri/card0";
      cls = "gpu";
      driver = "radeon";
      exclusive = false;
      kinds =
        [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Ioctl; Os_flavor.Mmap;
          Os_flavor.Fault; Os_flavor.Poll ];
      entries = Some (Analyzer.Extract.analyze Analyzer.Radeon_ir.driver_3_2_0);
      info =
        Device_info.gpu ~vendor:0x1002 ~device:0x6779 ~vram_bytes:(vram_mib * mib);
    };
  att

(** Device data isolation for the GPU (§4.2, §5.3): donate per-guest
    pools of driver RAM, create the protected regions, unmap the
    memory-controller MMIO page from the driver VM, and switch the
    Radeon driver into its isolation mode.  Call after every guest has
    been added. *)
let enable_gpu_data_isolation t ?(pool_pages_per_guest = 8192) () =
  let att =
    match t.gpu with
    | Some a -> a
    | None -> invalid_arg "enable_gpu_data_isolation: attach the GPU first"
  in
  if att.isolation <> None then invalid_arg "data isolation already enabled";
  if t.guests = [] then invalid_arg "enable_gpu_data_isolation: no guests";
  (* chronological guest order: the first guest added owns region 0 *)
  let owners = List.map (fun g -> g.vm) (List.rev t.guests) in
  (* the driver donates pool pages out of its own RAM (trusted init) *)
  let donate () =
    List.init pool_pages_per_guest (fun _ ->
        let gpa = Hypervisor.Vm.alloc_gpa_page t.driver_vm in
        match Memory.Ept.lookup (Hypervisor.Vm.ept t.driver_vm) ~gpa with
        | Some (spa, _) -> (gpa, spa)
        | None -> assert false)
  in
  let donations = List.map (fun _ -> donate ()) owners in
  let pool_spns =
    List.map (fun pages -> List.map (fun (_, spa) -> Memory.Addr.pfn spa) pages) donations
  in
  let mgr =
    Hypervisor.Region.create t.hyp ~driver_vm:t.driver_vm ~iommu:att.gpu_iommu
      ~owners ~pool_spns
      ~dev_mem:(Devices.Gpu_hw.vram_base att.gpu,
                Devices.Gpu_hw.vram_bytes att.gpu / Memory.Addr.page_size)
  in
  (* §5.3 change (iii): take the MC MMIO page away from the driver VM *)
  Hypervisor.Region.strip_driver_access mgr att.mc_spn;
  Devices.Radeon_drv.init_isolated att.radeon ~mgr
    ~pool_pages:(List.concat donations);
  att.isolation <- Some mgr;
  mgr

let attach_mouse t =
  let ev =
    Devices.Evdev.create t.driver_kernel ~name:"usbmouse"
      ~delivery_latency_us:(t.config.Config.input_delivery_us +. irq_extra t)
  in
  let (_ : Defs.device) = Devices.Evdev.register ev ~path:"/dev/input/event0" in
  t.mouse <- Some ev;
  register_export t
    {
      path = "/dev/input/event0";
      cls = "input";
      driver = "evdev/usbmouse";
      exclusive = false;
      kinds =
        [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Read; Os_flavor.Ioctl;
          Os_flavor.Poll; Os_flavor.Fasync ];
      entries = None;
      info = Device_info.input ~name:"Dell USB Mouse" ~product:0x3012;
    };
  ev

let attach_keyboard t =
  let ev =
    Devices.Evdev.create t.driver_kernel ~name:"usbkbd"
      ~delivery_latency_us:(t.config.Config.input_delivery_us +. irq_extra t)
  in
  let (_ : Defs.device) = Devices.Evdev.register ev ~path:"/dev/input/event1" in
  t.keyboard <- Some ev;
  register_export t
    {
      path = "/dev/input/event1";
      cls = "input";
      driver = "evdev/usbkbd";
      exclusive = false;
      kinds =
        [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Read; Os_flavor.Ioctl;
          Os_flavor.Poll; Os_flavor.Fasync ];
      entries = None;
      info = Device_info.input ~name:"Dell USB Keyboard" ~product:0x2105;
    };
  ev

let attach_camera t ?(fps = 29.5) () =
  let cam = Devices.V4l2_drv.create t.driver_kernel ~fps in
  let (_ : Defs.device) = Devices.V4l2_drv.register cam ~path:"/dev/video0" in
  Devices.V4l2_drv.start_sensor cam;
  t.camera <- Some cam;
  register_export t
    {
      path = "/dev/video0";
      cls = "camera";
      driver = "V4L2/UVC";
      exclusive = true;
      kinds =
        [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Ioctl; Os_flavor.Mmap;
          Os_flavor.Fault; Os_flavor.Poll ];
      entries = None;
      info =
        Device_info.camera ~name:"Logitech HD Pro Webcam C920"
          ~resolutions:[ "1280x720"; "1600x896"; "1920x1080" ];
    };
  cam

let attach_audio t =
  let pcm = Devices.Pcm_drv.create t.driver_kernel in
  let (_ : Defs.device) = Devices.Pcm_drv.register pcm ~path:"/dev/snd/pcm0" in
  Devices.Pcm_drv.start_codec pcm;
  t.audio <- Some pcm;
  register_export t
    {
      path = "/dev/snd/pcm0";
      cls = "audio";
      driver = "PCM/snd-hda-intel";
      exclusive = false;
      kinds =
        [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Write; Os_flavor.Ioctl;
          Os_flavor.Poll ];
      entries = None;
      info = Device_info.audio ~name:"Intel Panther Point HD Audio";
    };
  pcm

let attach_netmap t =
  let iommu = Memory.Iommu.create ~name:"e1000-iommu" in
  let nm = Devices.Netmap_drv.create t.driver_kernel ~iommu () in
  let (_ : Defs.device) = Devices.Netmap_drv.register nm ~path:"/dev/netmap" in
  Devices.Netmap_drv.start nm;
  t.netmap <- Some nm;
  register_export t
    {
      path = "/dev/netmap";
      cls = "net";
      driver = "netmap/e1000e";
      exclusive = true;
      kinds =
        [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Ioctl; Os_flavor.Mmap;
          Os_flavor.Fault; Os_flavor.Poll ];
      entries = None;
      info = Device_info.ethernet ~name:"Intel Gigabit CT" ~num_slots:1024 ~buf_size:2048;
    };
  nm

(** A null device: its only ioctl returns immediately.  Backs the
    no-op file-operation latency microbenchmark of §6.1.1 and the
    per-strategy comparison of Table 3. *)
let null_ioctl = Oskit.Ioctl_num.io ~typ:'0' ~nr:0

let attach_null t =
  let ops =
    {
      Defs.default_ops with
      Defs.fop_kinds = [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Ioctl ];
      fop_ioctl =
        (fun _task _file ~cmd ~arg:_ ->
          if cmd = null_ioctl then 0 else Errno.fail Errno.ENOTTY "null device");
    }
  in
  let dev = Defs.make_device ~path:"/dev/null0" ~cls:"test" ~driver:"null" ops in
  Devfs.register (Kernel.devfs t.driver_kernel) dev;
  register_export t
    {
      path = "/dev/null0";
      cls = "test";
      driver = "null";
      exclusive = false;
      kinds = [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Ioctl ];
      entries = None;
      info = { Device_info.cls = "test"; sysfs_entries = []; pci = None };
    };
  dev
