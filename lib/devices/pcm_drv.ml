(** Audio: an HDA-like PCM playback device.

    Writes feed a ring that the codec drains at the sample rate.  A
    full ring blocks the writer, so playing an N-second file takes N
    seconds wall-clock regardless of configuration — the §6.1.6
    observation that native, device assignment and Paradice all finish
    the file at the same time. *)

open Oskit

let set_rate_ioctl = Ioctl_num.iow ~typ:'A' ~nr:1 ~size:8 (* { rate u32; channels u32 } *)
let drain_ioctl = Ioctl_num.io ~typ:'A' ~nr:2

type t = {
  kernel : Kernel.t;
  mutable rate_hz : int;
  mutable channels : int;
  mutable sample_bytes : int;
  ring_capacity : int; (* bytes *)
  mutable ring_level : int;
  mutable consumed_bytes : int;
  wq : Wait_queue.t; (* writers wait for ring space *)
  drain_wq : Wait_queue.t;
  codec_wq : Wait_queue.t; (* codec sleeps here while the ring is empty *)
}

let create kernel =
  {
    kernel;
    rate_hz = 44_100;
    channels = 2;
    sample_bytes = 2;
    ring_capacity = 64 * 1024;
    ring_level = 0;
    consumed_bytes = 0;
    wq = Wait_queue.create (Kernel.engine kernel);
    drain_wq = Wait_queue.create (Kernel.engine kernel);
    codec_wq = Wait_queue.create (Kernel.engine kernel);
  }

let consumed_bytes t = t.consumed_bytes

let bytes_per_second t = t.rate_hz * t.channels * t.sample_bytes

(** Bytes per [period_us] of audio at the current parameters — the
    natural sub-op payload size for a batched period writer. *)
let period_bytes t ~period_us =
  int_of_float (float_of_int (bytes_per_second t) *. period_us /. 1_000_000.)

(* The codec: drains the ring at the configured rate in 10 ms ticks,
   sleeping while the ring is empty so an idle device generates no
   simulation events. *)
let start_codec t =
  let eng = Kernel.engine t.kernel in
  Sim.Engine.spawn eng ~name:"hda-codec" (fun () ->
      let tick_us = 10_000. in
      let rec loop () =
        if t.ring_level = 0 then Wait_queue.sleep t.codec_wq
        else begin
          Sim.Engine.wait tick_us;
          let per_tick = bytes_per_second t / 100 in
          let take = min t.ring_level per_tick in
          t.ring_level <- t.ring_level - take;
          t.consumed_bytes <- t.consumed_bytes + take;
          Wait_queue.wake_all t.wq;
          if t.ring_level = 0 then Wait_queue.wake_all t.drain_wq
        end;
        loop ()
      in
      loop ())

let file_ops t =
  {
    Defs.default_ops with
    Defs.fop_kinds =
      [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Write; Os_flavor.Ioctl;
        Os_flavor.Poll ];
    fop_write =
      (fun task file ~buf ~len ->
        if len <= 0 then Errno.fail Errno.EINVAL "write: bad length";
        (* consume the PCM payload (checks the user pointer) *)
        let (_ : bytes) = Uaccess.copy_from_user task ~uaddr:buf ~len in
        let remaining = ref len in
        while !remaining > 0 do
          let space = t.ring_capacity - t.ring_level in
          if space = 0 then begin
            if file.Defs.nonblock then Errno.fail Errno.EAGAIN "ring full";
            Wait_queue.sleep t.wq
          end
          else begin
            let chunk = min space !remaining in
            t.ring_level <- t.ring_level + chunk;
            remaining := !remaining - chunk;
            Wait_queue.wake_all t.codec_wq
          end
        done;
        len);
    fop_ioctl =
      (fun task _file ~cmd ~arg ->
        (* interface-audit note: this surface is clean — both fields
           are range-checked before use, and a u32 sign wrap through
           Int32.to_int lands below the lower bound and is rejected *)
        if cmd = set_rate_ioctl then begin
          let data = Uaccess.copy_from_user task ~uaddr:(Int64.to_int arg) ~len:8 in
          let rate = Int32.to_int (Bytes.get_int32_le data 0)
          and channels = Int32.to_int (Bytes.get_int32_le data 4) in
          if rate < 8000 || rate > 192_000 || channels < 1 || channels > 8 then
            Errno.fail Errno.EINVAL "bad PCM parameters";
          t.rate_hz <- rate;
          t.channels <- channels;
          0
        end
        else if cmd = drain_ioctl then begin
          while t.ring_level > 0 do
            Wait_queue.sleep t.drain_wq
          done;
          0
        end
        else Errno.fail Errno.ENOTTY "unknown pcm ioctl");
    fop_poll =
      (fun _task _file ~want_in:_ ~want_out:_ ->
        { Defs.pollin = false; pollout = t.ring_level < t.ring_capacity; poll_wq = Some t.wq });
  }

let register t ~path =
  let dev =
    Defs.make_device ~path ~cls:"audio" ~driver:"PCM/snd-hda-intel" (file_ops t)
  in
  Devfs.register (Kernel.devfs t.kernel) dev;
  dev
