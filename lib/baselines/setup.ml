(** Experiment setups: one builder per point of comparison in §6.

    Every setup yields a {!Workloads.Runner.env}, so the same workload
    measures native execution, direct device assignment, and Paradice
    in its interrupt/polling/FreeBSD/data-isolation variants. *)

type mode =
  | Native
  | Device_assign
  | Paradice of Paradice.Config.t
  | Paradice_freebsd of Paradice.Config.t (* FreeBSD guest, Linux driver VM *)

let mode_label = function
  | Native -> "Native"
  | Device_assign -> "Device-Assign."
  | Paradice c ->
      let w = c.Paradice.Config.poll_window_us in
      if w = infinity then "Paradice(P)"
      else if w > 0. then "Paradice(H)"
      else if c.Paradice.Config.data_isolation then "Paradice(DI)"
      else "Paradice"
  | Paradice_freebsd _ -> "Paradice(FL)"

type device = Gpu | Mouse | Keyboard | Camera | Audio | Netmap | Null

let attach machine device =
  match device with
  | Gpu -> ignore (Paradice.Machine.attach_gpu machine ())
  | Mouse -> ignore (Paradice.Machine.attach_mouse machine)
  | Keyboard -> ignore (Paradice.Machine.attach_keyboard machine)
  | Camera -> ignore (Paradice.Machine.attach_camera machine ())
  | Audio -> ignore (Paradice.Machine.attach_audio machine)
  | Netmap -> ignore (Paradice.Machine.attach_netmap machine)
  | Null -> ignore (Paradice.Machine.attach_null machine)

(** Build a machine + env for [mode] with [devices] attached.  For the
    Paradice modes one guest VM is created (use [extra_guests] for the
    sharing experiments); data isolation, when requested in the
    config, is enabled for the GPU after all guests exist. *)
let make ?(extra_guests = 0) ~devices mode =
  let label = mode_label mode in
  let machine, env =
    match mode with
    | Native ->
        let m = Paradice.Machine.create ~mode:Paradice.Machine.Native () in
        List.iter (attach m) devices;
        (m, Workloads.Runner.of_machine ~label m)
    | Device_assign ->
        let m = Paradice.Machine.create ~mode:Paradice.Machine.Device_assignment () in
        List.iter (attach m) devices;
        (m, Workloads.Runner.of_machine ~label m)
    | Paradice config | Paradice_freebsd config ->
        let m = Paradice.Machine.create ~mode:Paradice.Machine.Paradice ~config () in
        List.iter (attach m) devices;
        let flavor =
          match mode with
          | Paradice_freebsd _ -> Oskit.Os_flavor.Freebsd_9
          | _ -> Oskit.Os_flavor.Linux_3_2_0
        in
        let (_ : Paradice.Machine.guest) =
          Paradice.Machine.add_guest m ~name:"guest1" ~flavor ()
        in
        for i = 2 to extra_guests + 1 do
          ignore
            (Paradice.Machine.add_guest m ~name:(Printf.sprintf "guest%d" i) ~flavor ())
        done;
        if config.Paradice.Config.data_isolation && List.mem Gpu devices then
          ignore (Paradice.Machine.enable_gpu_data_isolation m ());
        (m, Workloads.Runner.of_machine ~label m)
  in
  (machine, env)

(** The standard comparison set for a single-guest experiment. *)
let standard_modes =
  [
    Native;
    Device_assign;
    Paradice Paradice.Config.default;
    Paradice Paradice.Config.polling;
  ]
