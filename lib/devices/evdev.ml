(** Input devices: the evdev event interface plus mouse/keyboard
    hardware models.

    Events are 16-byte records (timestamp, type, code, value) queued by
    the hardware; [read] drains the queue, [poll] and [fasync] signal
    arrival — the asynchronous-notification path whose forwarding
    latency §6.1.5 measures. *)

open Oskit

type event = { time_us : float; ev_type : int; code : int; value : int }

let ev_syn = 0x00
let ev_key = 0x01
let ev_rel = 0x02

let rel_x = 0x00
let rel_y = 0x01

let event_bytes = 16

let encode_event e =
  let b = Bytes.create event_bytes in
  Bytes.set_int32_le b 0 (Int32.of_int (int_of_float e.time_us));
  Bytes.set_int32_le b 4 (Int32.of_int e.ev_type);
  Bytes.set_int32_le b 8 (Int32.of_int e.code);
  Bytes.set_int32_le b 12 (Int32.of_int e.value);
  b

let decode_event b off =
  {
    time_us = float_of_int (Int32.to_int (Bytes.get_int32_le b off));
    ev_type = Int32.to_int (Bytes.get_int32_le b (off + 4));
    code = Int32.to_int (Bytes.get_int32_le b (off + 8));
    value = Int32.to_int (Bytes.get_int32_le b (off + 12));
  }

(* The evdev ioctl surface: identity, autorepeat, and exclusive grab —
   the commands an input stack issues besides the read loop. *)
let eviocgid = Ioctl_num.ior ~typ:'E' ~nr:0x02 ~size:8
(* { bustype u16; vendor u16; product u16; version u16 } *)

let eviocgrep = Ioctl_num.ior ~typ:'E' ~nr:0x03 ~size:8
let eviocsrep = Ioctl_num.iow ~typ:'E' ~nr:0x03 ~size:8
(* { delay_ms u32; period_ms u32 } *)

let eviocgrab = Ioctl_num.iow ~typ:'E' ~nr:0x90 ~size:4
(* value argument: nonzero grabs, zero releases *)

let rep_delay_max = 5000
let rep_period_max = 1000
let id_bustype = 0x03 (* USB *)
let id_vendor = 0x1d6b
let id_product = 0x0104
let id_version = 0x0111

type t = {
  kernel : Kernel.t;
  name : string;
  delivery_latency_us : float;
      (* USB interrupt + input-core processing between the physical
         event and the evdev queue: ~38 us natively, +16 us under
         device assignment (§6.1.5) *)
  queue : event Queue.t;
  wq : Wait_queue.t;
  mutable open_files : Defs.file list; (* fasync delivery targets *)
  mutable dropped : int;
  max_queue : int;
  (* latency probe: driver-side receive time of each event, consumed
     when the matching read reaches the driver (§6.1.5's methodology) *)
  mutable pending_report_times : float list;
  mutable read_latencies : float list;
  (* ioctl-visible state *)
  mutable rep_delay : int;
  mutable rep_period : int;
  mutable grabbed : Defs.file option; (* EVIOCGRAB holder *)
}

let create ?(delivery_latency_us = 0.) kernel ~name =
  {
    kernel;
    name;
    delivery_latency_us;
    queue = Queue.create ();
    wq = Wait_queue.create (Kernel.engine kernel);
    open_files = [];
    dropped = 0;
    max_queue = 1024;
    pending_report_times = [];
    read_latencies = [];
    rep_delay = 250;
    rep_period = 33;
    grabbed = None;
  }

let read_latencies t = t.read_latencies

let dropped_events t = t.dropped

(** Hardware-side event injection (called by the mouse/keyboard models
    below).  The event reaches the evdev queue after the configured
    delivery latency; the latency probe starts at the {e physical}
    event time, matching §6.1.5's measurement. *)
let inject t e =
  let eng = Kernel.engine t.kernel in
  let reported_at = Sim.Engine.now eng in
  let deliver () =
    if Queue.length t.queue >= t.max_queue then t.dropped <- t.dropped + 1
    else begin
      Queue.add e t.queue;
      t.pending_report_times <- t.pending_report_times @ [ reported_at ];
      Wait_queue.wake_all t.wq;
      List.iter Vfs.kill_fasync t.open_files
    end
  in
  if t.delivery_latency_us <= 0. then deliver ()
  else Sim.Engine.at eng ~delay:t.delivery_latency_us deliver

let autorepeat t = (t.rep_delay, t.rep_period)

let file_ops t =
  {
    Defs.default_ops with
    Defs.fop_kinds =
      [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Read; Os_flavor.Ioctl;
        Os_flavor.Poll; Os_flavor.Fasync ];
    fop_open = (fun _task file -> t.open_files <- file :: t.open_files);
    fop_release =
      (fun _task file ->
        t.open_files <- List.filter (fun f -> f != file) t.open_files;
        (* a grab dies with its holder *)
        (match t.grabbed with Some f when f == file -> t.grabbed <- None | _ -> ());
        (* wake readers parked on this queue so one sleeping on the
           just-closed file observes it instead of hanging forever *)
        Wait_queue.wake_all t.wq);
    fop_ioctl =
      (fun task file ~cmd ~arg ->
        if cmd = eviocgid then begin
          let b = Bytes.create 8 in
          Bytes.set_uint16_le b 0 id_bustype;
          Bytes.set_uint16_le b 2 id_vendor;
          Bytes.set_uint16_le b 4 id_product;
          Bytes.set_uint16_le b 6 id_version;
          Uaccess.copy_to_user task ~uaddr:(Int64.to_int arg) b;
          0
        end
        else if cmd = eviocgrep then begin
          let b = Bytes.create 8 in
          Bytes.set_int32_le b 0 (Int32.of_int t.rep_delay);
          Bytes.set_int32_le b 4 (Int32.of_int t.rep_period);
          Uaccess.copy_to_user task ~uaddr:(Int64.to_int arg) b;
          0
        end
        else if cmd = eviocsrep then begin
          let data = Uaccess.copy_from_user task ~uaddr:(Int64.to_int arg) ~len:8 in
          let delay = Int32.to_int (Bytes.get_int32_le data 0)
          and period = Int32.to_int (Bytes.get_int32_le data 4) in
          (* delay/period are u32s on the wire: an Int32 sign wrap lands
             below the lower bound and is rejected here *)
          if delay < 0 || delay > rep_delay_max then
            Errno.fail Errno.EINVAL "bad autorepeat delay";
          if period < 1 || period > rep_period_max then
            Errno.fail Errno.EINVAL "bad autorepeat period";
          t.rep_delay <- delay;
          t.rep_period <- period;
          0
        end
        else if cmd = eviocgrab then begin
          (* the argument is a value, not a pointer *)
          if Int64.compare arg 0L <> 0 then (
            match t.grabbed with
            | Some f when f != file -> Errno.fail Errno.EBUSY "device grabbed"
            | _ ->
                t.grabbed <- Some file;
                0)
          else (
            (match t.grabbed with
            | Some f when f == file -> t.grabbed <- None
            | _ -> ());
            0)
        end
        else Errno.fail Errno.ENOTTY "unknown evdev ioctl");
    fop_read =
      (fun task file ~buf ~len ->
        let max_events = len / event_bytes in
        if max_events = 0 then Errno.fail Errno.EINVAL "buffer too small";
        (* block until at least one event, honouring O_NONBLOCK.  A
           sleeper whose file was closed under it (force-release during
           quarantine or a planned driver-VM handoff) must fail on wake,
           not steal events that now belong to the file's successor. *)
        while Queue.is_empty t.queue do
          if file.Defs.closed then Errno.fail Errno.ENODEV "device file closed";
          if file.Defs.nonblock then Errno.fail Errno.EAGAIN "no events";
          Wait_queue.sleep t.wq
        done;
        if file.Defs.closed then Errno.fail Errno.ENODEV "device file closed";
        (* the read has "reached the driver": close the latency probe
           for each event we are about to deliver *)
        let now = Sim.Engine.now (Kernel.engine t.kernel) in
        let n = min max_events (Queue.length t.queue) in
        let out = Bytes.create (n * event_bytes) in
        for i = 0 to n - 1 do
          let e = Queue.take t.queue in
          Bytes.blit (encode_event e) 0 out (i * event_bytes) event_bytes;
          (match t.pending_report_times with
          | reported :: rest ->
              t.read_latencies <- (now -. reported) :: t.read_latencies;
              t.pending_report_times <- rest
          | [] -> ())
        done;
        Uaccess.copy_to_user task ~uaddr:buf out;
        n * event_bytes);
    fop_poll =
      (fun _task _file ~want_in:_ ~want_out:_ ->
        { Defs.pollin = not (Queue.is_empty t.queue); pollout = false; poll_wq = Some t.wq });
    fop_fasync = (fun _task _file ~on:_ -> ());
  }

let register t ~path =
  let dev = Defs.make_device ~path ~cls:"input" ~driver:("evdev/" ^ t.name) (file_ops t) in
  Devfs.register (Kernel.devfs t.kernel) dev;
  dev

(* ------------------------------------------------------------------ *)
(* Hardware models                                                     *)
(* ------------------------------------------------------------------ *)

(** A mouse generating [rate_hz] relative-motion reports.  Runs until
    [moves] events have been injected. *)
let start_mouse t ~rate_hz ~moves =
  let eng = Kernel.engine t.kernel in
  let interval = 1_000_000. /. rate_hz in
  Sim.Engine.spawn eng ~name:"mouse-hw" (fun () ->
      for i = 1 to moves do
        Sim.Engine.wait interval;
        let now = Sim.Engine.now eng in
        inject t { time_us = now; ev_type = ev_rel; code = rel_x; value = (i mod 7) - 3 };
        inject t { time_us = now; ev_type = ev_syn; code = 0; value = 0 }
      done)

(** A keyboard typing [keys] at [rate_hz] (press + release pairs). *)
let start_keyboard t ~rate_hz ~keys =
  let eng = Kernel.engine t.kernel in
  let interval = 1_000_000. /. rate_hz in
  Sim.Engine.spawn eng ~name:"kbd-hw" (fun () ->
      List.iter
        (fun keycode ->
          Sim.Engine.wait interval;
          let now = Sim.Engine.now eng in
          inject t { time_us = now; ev_type = ev_key; code = keycode; value = 1 };
          inject t { time_us = now; ev_type = ev_key; code = keycode; value = 0 };
          inject t { time_us = now; ev_type = ev_syn; code = 0; value = 0 })
        keys)
