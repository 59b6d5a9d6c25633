(* Transport-level tests: channel timing, cold/warm accounting, signal
   collapsing, pool behaviour, and failure injection at the wire level
   (a malicious frontend must not be able to wedge the backend). *)

module M = Paradice.Machine

let boot_null () =
  let m = M.create () in
  let (_ : Oskit.Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g" () in
  (m, g)

let run_in eng f =
  let r = ref None in
  Sim.Engine.spawn eng (fun () -> r := Some (f ()));
  Sim.Engine.run eng;
  Option.get !r

let raw_rpc g bytes =
  Paradice.Chan_pool.rpc g.M.link.Paradice.Cvd_back.pool ~trace:0
    ~encode:(Paradice.Proto.encoded bytes) ~decode:Bytes.copy

let test_malformed_request_rejected () =
  (* garbage opcode straight onto the wire *)
  let m, g = boot_null () in
  run_in (M.engine m) (fun () ->
      let junk = Bytes.make Paradice.Proto.slot_size '\xff' in
      match Paradice.Proto.decode_response (raw_rpc g junk) with
      | Paradice.Proto.Rerr code ->
          Alcotest.(check (option string)) "EINVAL on garbage" (Some "EINVAL")
            (Option.map Oskit.Errno.to_string (Oskit.Errno.of_code code))
      | _ -> Alcotest.fail "garbage must be rejected");
  (* backend still alive afterwards *)
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let resp =
        raw_rpc g
          (Paradice.Proto.encode_request ~grant_ref:0 ~pid:app.Oskit.Defs.pid
             Paradice.Proto.Rnoop)
      in
      Alcotest.(check bool) "backend survives garbage" true
        (Paradice.Proto.decode_response resp = Paradice.Proto.Rok 0))

let test_bad_vfd_rejected () =
  let m, g = boot_null () in
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let resp =
        raw_rpc g
          (Paradice.Proto.encode_request ~grant_ref:0 ~pid:app.Oskit.Defs.pid
             (Paradice.Proto.Rread { vfd = 999; buf = 0x1000; len = 4 }))
      in
      match Paradice.Proto.decode_response resp with
      | Paradice.Proto.Rerr _ -> ()
      | _ -> Alcotest.fail "bad vfd must error")

let test_unknown_pid_rejected () =
  (* a request naming a process the hypervisor has never seen *)
  let m, g = boot_null () in
  run_in (M.engine m) (fun () ->
      let resp =
        raw_rpc g
          (Paradice.Proto.encode_request ~grant_ref:0 ~pid:424242
             (Paradice.Proto.Ropen { path = "/dev/null0" }))
      in
      match Paradice.Proto.decode_response resp with
      | Paradice.Proto.Rerr code ->
          Alcotest.(check (option string)) "EFAULT for unknown process"
            (Some "EFAULT")
            (Option.map Oskit.Errno.to_string (Oskit.Errno.of_code code))
      | _ -> Alcotest.fail "unknown pid must be rejected")

let test_open_non_exported_path_rejected () =
  (* the backend only serves explicitly exported device paths *)
  let m = M.create () in
  let (_ : Oskit.Defs.device) = M.attach_null m in
  (* a private driver-VM device that is NOT exported *)
  Oskit.Devfs.register
    (Oskit.Kernel.devfs (M.driver_kernel m))
    (Oskit.Defs.make_device ~path:"/dev/private0" ~cls:"secret" ~driver:"x"
       Oskit.Defs.default_ops);
  let g = M.add_guest m ~name:"g" () in
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let resp =
        raw_rpc g
          (Paradice.Proto.encode_request ~grant_ref:0 ~pid:app.Oskit.Defs.pid
             (Paradice.Proto.Ropen { path = "/dev/private0" }))
      in
      match Paradice.Proto.decode_response resp with
      | Paradice.Proto.Rerr code ->
          Alcotest.(check (option string)) "ENODEV for unexported path"
            (Some "ENODEV")
            (Option.map Oskit.Errno.to_string (Oskit.Errno.of_code code))
      | _ -> Alcotest.fail "unexported path must be refused")

let test_cold_then_warm_legs () =
  let m, g = boot_null () in
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let noop () =
        ignore
          (raw_rpc g
             (Paradice.Proto.encode_request ~grant_ref:0 ~pid:app.Oskit.Defs.pid
                Paradice.Proto.Rnoop))
      in
      noop ();
      let s1 = Paradice.Chan_pool.stats g.M.link.Paradice.Cvd_back.pool in
      Alcotest.(check int) "first exchange: both legs cold" 2
        s1.Paradice.Chan_pool.cold_legs;
      noop ();
      let s2 = Paradice.Chan_pool.stats g.M.link.Paradice.Cvd_back.pool in
      Alcotest.(check int) "back-to-back: no new cold legs" 2
        s2.Paradice.Chan_pool.cold_legs;
      (* go idle past the threshold: cold again *)
      Sim.Engine.wait 5_000.;
      noop ();
      let s3 = Paradice.Chan_pool.stats g.M.link.Paradice.Cvd_back.pool in
      Alcotest.(check int) "after idle: both legs cold again" 4
        s3.Paradice.Chan_pool.cold_legs)

let test_notification_collapse () =
  let m = M.create () in
  let mouse = M.attach_mouse m in
  let g = M.add_guest m ~name:"g" () in
  let sigio_count = ref 0 in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let fd = Fixtures.ok (Oskit.Vfs.openf g.M.kernel app "/dev/input/event0") in
      Oskit.Task.on_sigio app (fun () -> incr sigio_count);
      Fixtures.ok (Oskit.Vfs.fasync g.M.kernel app fd ~on:true));
  (* a burst of 10 events (after the subscription has settled) lands
     while no one consumes notifications: the pending interrupt must
     collapse them *)
  Sim.Engine.at (M.engine m) ~delay:5_000. (fun () ->
      Devices.Evdev.start_mouse mouse ~rate_hz:100_000. ~moves:5);
  Sim.Engine.run (M.engine m);
  Alcotest.(check bool)
    (Printf.sprintf "burst collapsed into few signals (got %d)" !sigio_count)
    true
    (!sigio_count >= 1 && !sigio_count <= 5)

let test_pool_cap_counts_rejections () =
  let cfg = { Paradice.Config.default with Paradice.Config.max_queued_ops = 3 } in
  let m = M.create ~config:cfg () in
  let (_ : Devices.Evdev.t) = M.attach_mouse m in
  let g = M.add_guest m ~name:"g" () in
  let busy = ref 0 in
  for i = 1 to 8 do
    Sim.Engine.spawn (M.engine m) (fun () ->
        let app = M.spawn_app m g.M.kernel ~name:(Printf.sprintf "p%d" i) in
        match Oskit.Vfs.openf g.M.kernel app "/dev/input/event0" with
        | Ok fd -> (
            let buf = Oskit.Task.alloc_buf app 64 in
            (* blocking read parks a worker *)
            match Oskit.Vfs.read g.M.kernel app fd ~buf ~len:64 with
            | Error Oskit.Errno.EBUSY -> incr busy
            | _ -> ())
        | Error Oskit.Errno.EBUSY -> incr busy
        | Error _ -> ())
  done;
  Sim.Engine.run ~until:100_000. (M.engine m);
  let s = Paradice.Chan_pool.stats g.M.link.Paradice.Cvd_back.pool in
  Alcotest.(check bool) "cap of 3 rejected 5 of 8" true (!busy = 5);
  Alcotest.(check int) "pool counted rejections" 5 s.Paradice.Chan_pool.rejected_busy

(* ---- ring transport: sequence pairing, coalescing, pipelining ---- *)

module Ch = Paradice.Channel

(* A raw channel between the machine's guest and driver VMs, with a
   scripted backend instead of the real CVD — lets a test control
   exactly when each response comes back. *)
let raw_channel ?config (m, g) =
  let config = Option.value config ~default:(M.config m) in
  Ch.create (M.engine m) ~config ~phys:m.M.phys ~guest_vm:g.M.vm
    ~driver_vm:m.M.driver_vm

let noop_req = Paradice.Proto.encode_request ~grant_ref:0 ~pid:0 Paradice.Proto.Rnoop

(* An echo backend that serves its first request only after
   [first_delay_us]; later requests are answered immediately.  Returns
   the executed-request counter (at-least-once retries make it
   observable when an operation ran twice). *)
let echo_server ch eng ~first_delay_us =
  let executions = ref 0 in
  Sim.Engine.spawn eng ~name:"echo-server" (fun () ->
      let first = ref true in
      let rec loop () =
        match Ch.next_request ch with
        | None -> ()
        | Some (slot, _) ->
            if !first then begin
              first := false;
              if first_delay_us > 0. then Sim.Engine.wait first_delay_us
            end;
            incr executions;
            Ch.respond ch ~slot (Paradice.Proto.Rok 0);
            loop ()
      in
      loop ());
  executions

let test_stale_response_discarded () =
  (* Regression: a late answer to a timed-out attempt used to be
     consumed as the resend's response (no sequence pairing).  The
     backend answers the first attempt after 600us against a 500us
     deadline: the frontend must time out, resend, discard the late
     seq-1 response when it finally lands, and pair only with its own
     resend's answer. *)
  let m, g = boot_null () in
  let config =
    { (M.config m) with Paradice.Config.rpc_timeout_us = 500.; rpc_retries = 2 }
  in
  let ch = raw_channel ~config (m, g) in
  let executions = echo_server ch (M.engine m) ~first_delay_us:600. in
  run_in (M.engine m) (fun () -> Ch.rpc ch ~trace:0 ~encode:(Paradice.Proto.encoded noop_req) ~decode:ignore);
  let s = Ch.stats ch in
  Alcotest.(check int) "first attempt timed out" 1 s.Ch.timeouts;
  Alcotest.(check int) "resent once" 1 s.Ch.retries;
  Alcotest.(check int) "late response discarded as stale" 1 s.Ch.stale_responses;
  Alcotest.(check int) "at-least-once: operation ran twice" 2 !executions

let test_dropped_response_leg_recovered () =
  (* chan.drop_resp loses the response doorbell (the descriptor stays
     published).  The resend after the deadline must get a fresh leg —
     a dropped doorbell must not leave interrupt-coalescing believing
     one is still in flight. *)
  let m, g = boot_null () in
  let inj = Sim.Fault_inject.create ~seed:7L () in
  Sim.Fault_inject.arm inj ~key:Ch.site_drop_resp (Sim.Fault_inject.Nth 1);
  let config =
    {
      (M.config m) with
      Paradice.Config.rpc_timeout_us = 500.;
      rpc_retries = 2;
      injector = Some inj;
    }
  in
  let ch = raw_channel ~config (m, g) in
  let executions = echo_server ch (M.engine m) ~first_delay_us:0. in
  run_in (M.engine m) (fun () -> Ch.rpc ch ~trace:0 ~encode:(Paradice.Proto.encoded noop_req) ~decode:ignore);
  let s = Ch.stats ch in
  Alcotest.(check int) "deadline recovered the lost completion" 1 s.Ch.timeouts;
  Alcotest.(check int) "resent once" 1 s.Ch.retries;
  Alcotest.(check int) "operation ran twice" 2 !executions

let test_notify_single_leg_and_kill () =
  (* M rapid notifications while the interrupt is pending must deliver
     exactly one leg; the consumer then observes the wrap-safe delta
     since its last observation.  After kill ~poison:true a blocked
     consumer wakes to None. *)
  let m, g = boot_null () in
  let ch = raw_channel (m, g) in
  let eng = M.engine m in
  let observed = ref [] in
  let ended = ref false in
  Sim.Engine.spawn eng ~name:"notify-consumer" (fun () ->
      let rec loop () =
        match Ch.next_notification ch with
        | Some n ->
            observed := n :: !observed;
            loop ()
        | None -> ended := true
      in
      loop ());
  (* burst of 7 in one callback: one interrupt leg, delta 7 *)
  Sim.Engine.at eng ~delay:10. (fun () ->
      for _ = 1 to 7 do
        Ch.notify ch
      done);
  (* a later burst of 3 after the first was consumed: second leg *)
  Sim.Engine.at eng ~delay:5_000. (fun () ->
      for _ = 1 to 3 do
        Ch.notify ch
      done);
  Sim.Engine.at eng ~delay:8_000. (fun () -> Ch.kill ~poison:true ch);
  Sim.Engine.run eng;
  Alcotest.(check (list int))
    "notification deltas observed (newest first)" [ 3; 7 ] !observed;
  Alcotest.(check bool) "consumer saw the death" true !ended;
  let s = Ch.stats ch in
  Alcotest.(check int) "10 events counted" 10 s.Ch.notifications;
  Alcotest.(check int) "collapsed into 2 interrupt legs" 2 s.Ch.legs

let test_ring_pipelining_coalesces_doorbells () =
  (* 4 concurrent producers on ONE channel: the ring must carry them
     simultaneously (depth > 1) and the doorbells must coalesce — far
     fewer than the 2 legs/op the serial exchange pays. *)
  let cfg =
    { Paradice.Config.default with Paradice.Config.channels_per_guest = 1 }
  in
  let m = M.create ~config:cfg () in
  let (_ : Oskit.Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g" () in
  let pid = ref 0 in
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      pid := app.Oskit.Defs.pid);
  let req = Paradice.Proto.encode_request ~grant_ref:0 ~pid:!pid Paradice.Proto.Rnoop in
  for _ = 1 to 4 do
    Sim.Engine.spawn (M.engine m) (fun () ->
        for _ = 1 to 5 do
          match Paradice.Proto.decode_response (raw_rpc g req) with
          | Paradice.Proto.Rok 0 -> ()
          | _ -> Alcotest.fail "noop must succeed"
        done)
  done;
  Sim.Engine.run (M.engine m);
  let s = Paradice.Chan_pool.stats g.M.link.Paradice.Cvd_back.pool in
  Alcotest.(check int) "all ops completed" 20 s.Paradice.Chan_pool.rpcs;
  Alcotest.(check bool)
    (Printf.sprintf "doorbells coalesced (%d legs for %d rpcs)"
       s.Paradice.Chan_pool.legs s.Paradice.Chan_pool.rpcs)
    true
    (s.Paradice.Chan_pool.legs < s.Paradice.Chan_pool.rpcs);
  let deep = ref 0 in
  Paradice.Chan_pool.iter_channels g.M.link.Paradice.Cvd_back.pool (fun c ->
      deep := max !deep (Ch.stats c).Ch.max_in_flight);
  Alcotest.(check bool)
    (Printf.sprintf "ring carried concurrent ops (max depth %d)" !deep)
    true (!deep >= 2)

let prop_proto_request_roundtrip =
  QCheck.Test.make ~name:"wire requests round-trip for all field values" ~count:300
    QCheck.(
      tup4 (int_bound 3) (int_bound 0xffffff) (int_bound 0xffffff) (int_bound 169))
    (fun (which, a, b, gref) ->
      let req =
        match which with
        | 0 -> Paradice.Proto.Rread { vfd = a land 0xffff; buf = b; len = a }
        | 1 -> Paradice.Proto.Rwrite { vfd = a land 0xffff; buf = b; len = a }
        | 2 ->
            Paradice.Proto.Rmmap
              { vfd = a land 0xffff; gva = b; len = a land 0xfffff; pgoff = a lsr 4 }
        | _ -> Paradice.Proto.Rioctl { vfd = a land 0xffff; cmd = b; arg = Int64.of_int a }
      in
      let bytes = Paradice.Proto.encode_request ~grant_ref:gref ~pid:(a land 0xffff) req in
      let req', gref', pid' = Paradice.Proto.decode_request bytes in
      req' = req && gref' = gref && pid' = a land 0xffff)

let prop_proto_junk_never_crashes =
  QCheck.Test.make ~name:"random wire bytes decode or raise Malformed" ~count:300
    QCheck.(string_of_size (QCheck.Gen.return 64))
    (fun junk ->
      let b = Bytes.make Paradice.Proto.slot_size '\000' in
      Bytes.blit_string junk 0 b 0 (String.length junk);
      match Paradice.Proto.decode_request b with
      | _ -> true
      | exception Paradice.Proto.Malformed _ -> true
      | exception _ -> false)

let test_concurrent_files_dispatch_correctly () =
  (* Regression: two applications in one guest using different devices
     concurrently — operations arrive on arbitrary pool channels and
     must reach the right backend file regardless of which worker
     carries them. *)
  let m = M.create () in
  let (_ : Devices.V4l2_drv.t) = M.attach_camera m () in
  let (_ : Devices.Pcm_drv.t) = M.attach_audio m in
  let g = M.add_guest m ~name:"media" () in
  let k = g.M.kernel in
  let frames = ref 0 and audio_done = ref false in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m k ~name:"cam" in
      let fd = Fixtures.ok (Oskit.Vfs.openf k app "/dev/video0") in
      let req = Oskit.Task.alloc_buf app 8 in
      Oskit.Task.write_u32 app ~gva:req 2;
      let (_ : int) =
        Fixtures.ok
          (Oskit.Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_reqbufs
             ~arg:(Int64.of_int req))
      in
      let qb = Oskit.Task.alloc_buf app 8 in
      for i = 0 to 1 do
        Oskit.Task.write_u32 app ~gva:qb i;
        let (_ : int) =
          Fixtures.ok
            (Oskit.Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_qbuf
               ~arg:(Int64.of_int qb))
        in
        ()
      done;
      let (_ : int) =
        Fixtures.ok (Oskit.Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_streamon ~arg:0L)
      in
      for _ = 1 to 3 do
        let (_ : int) =
          Fixtures.ok
            (Oskit.Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_dqbuf
               ~arg:(Int64.of_int qb))
        in
        incr frames;
        let idx = Oskit.Task.read_u32 app ~gva:qb in
        Oskit.Task.write_u32 app ~gva:qb idx;
        let (_ : int) =
          Fixtures.ok
            (Oskit.Vfs.ioctl k app fd ~cmd:Devices.V4l2_drv.vidioc_qbuf
               ~arg:(Int64.of_int qb))
        in
        ()
      done);
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m k ~name:"audio" in
      let fd = Fixtures.ok (Oskit.Vfs.openf k app "/dev/snd/pcm0") in
      let buf = Oskit.Task.alloc_buf app 4096 in
      for _ = 1 to 8 do
        let (_ : int) = Fixtures.ok (Oskit.Vfs.write k app fd ~buf ~len:4096) in
        ()
      done;
      let (_ : int) =
        Fixtures.ok (Oskit.Vfs.ioctl k app fd ~cmd:Devices.Pcm_drv.drain_ioctl ~arg:0L)
      in
      audio_done := true);
  Sim.Engine.run (M.engine m);
  Alcotest.(check int) "camera frames delivered" 3 !frames;
  Alcotest.(check bool) "audio completed" true !audio_done

(* ---- descriptor-buffer ownership ----

   The request and response descriptors are filled in a domain-local
   scratch buffer and the backend serves from a per-channel private
   copy.  These tests pin each owner down: concurrent exchanges never
   see one another's bytes, a stale-response republish re-encodes the
   live request, and a guest cannot reach the backend's copy. *)

module P = Paradice.Proto

let ioctl_req arg = P.Rioctl { vfd = 0; cmd = 1; arg = Int64.of_int arg }
let encode_ioctl arg buf = P.encode_request_into buf ~grant_ref:0 ~pid:0 (ioctl_req arg)

(* A scripted backend: waits [delay_us] with the drained descriptor in
   hand, then answers an ioctl with [answer ~execution arg].  [drained]
   collects each descriptor's ioctl argument as decoded after the wait
   (-1 for anything else); [on_drain] runs right after each drain. *)
let ioctl_server ?(on_drain = fun ~slot:_ -> ()) ch eng ~delay_us ~answer =
  let drained = ref [] in
  Sim.Engine.spawn eng ~name:"ioctl-server" (fun () ->
      let rec loop () =
        match Ch.next_request ch with
        | None -> ()
        | Some (slot, bytes) ->
            on_drain ~slot;
            Sim.Engine.wait (delay_us (List.length !drained));
            let arg =
              match P.decode_request bytes with
              | P.Rioctl { arg; _ }, _, _ -> Int64.to_int arg
              | _ | (exception P.Malformed _) -> -1
            in
            drained := arg :: !drained;
            Ch.respond ch ~slot (answer ~execution:(List.length !drained) arg);
            loop ()
      in
      loop ());
  drained

let test_overlapping_guests_own_answers () =
  (* two guests whose drivers answer the same ioctl differently, each
     with three callers keeping several ring slots in flight, all in
     one domain (one scratch buffer): every caller must decode its own
     answer, and a copy taken by [decode] must stay its own after
     every later exchange has reused the scratch *)
  let m = M.create () in
  let (_ : Oskit.Defs.device) = M.attach_null m in
  let g1 = M.add_guest m ~name:"g1" () and g2 = M.add_guest m ~name:"g2" () in
  let eng = M.engine m in
  let guests = [ (raw_channel (m, g1), 10_000, 7.); (raw_channel (m, g2), 20_000, 11.) ] in
  List.iter
    (fun (ch, base, delay) ->
      ignore
        (ioctl_server ch eng ~delay_us:(fun _ -> delay) ~answer:(fun ~execution:_ arg ->
             P.Rok (base + arg))))
    guests;
  let answers = ref [] in
  List.iter
    (fun (ch, base, _) ->
      for caller = 0 to 2 do
        Sim.Engine.spawn eng (fun () ->
            for i = 1 to 5 do
              let arg = (caller * 100) + i in
              let resp, raw =
                Ch.rpc ch ~trace:0 ~encode:(encode_ioctl arg) ~decode:(fun b ->
                    (P.decode_response b, Bytes.copy b))
              in
              answers := (base + arg, resp, raw) :: !answers
            done)
      done)
    guests;
  Sim.Engine.run eng;
  Alcotest.(check int) "every exchange answered" 30 (List.length !answers);
  List.iter
    (fun (expected, resp, raw) ->
      Alcotest.(check bool)
        (Printf.sprintf "answer %d decoded by its own caller" expected)
        true (resp = P.Rok expected);
      Alcotest.(check bool)
        (Printf.sprintf "copy of answer %d still its own" expected)
        true
        (P.decode_response raw = P.Rok expected))
    !answers;
  List.iter
    (fun (ch, _, _) ->
      Alcotest.(check bool) "exchanges overlapped on the ring" true
        ((Ch.stats ch).Ch.max_in_flight > 1))
    guests

let test_stale_republish_pairs_by_seq () =
  (* the first attempt is answered after its deadline: its late
     response lands in the slot over the resend, and the frontend
     republishes.  The republished descriptor must be the live request
     re-encoded (the backend decodes the ioctl both times, never the
     stale response the frontend just read into the same scratch), and
     only the second execution's answer may pair with the caller *)
  let m, g = boot_null () in
  let config =
    { (M.config m) with Paradice.Config.rpc_timeout_us = 500.; rpc_retries = 2 }
  in
  let ch = raw_channel ~config (m, g) in
  let drained =
    ioctl_server ch (M.engine m)
      ~delay_us:(fun served -> if served = 0 then 600. else 0.)
      ~answer:(fun ~execution arg -> P.Rok ((execution * 1000) + arg))
  in
  let resp =
    run_in (M.engine m) (fun () ->
        Ch.rpc ch ~trace:0 ~encode:(encode_ioctl 42) ~decode:P.decode_response)
  in
  let s = Ch.stats ch in
  Alcotest.(check int) "late response discarded as stale" 1 s.Ch.stale_responses;
  Alcotest.(check (list int)) "both executions decoded the live request" [ 42; 42 ]
    !drained;
  Alcotest.(check bool) "paired with the second execution's answer" true
    (resp = P.Rok 2042)

let test_backend_copy_private () =
  (* double-fetch guard: once the backend has drained a descriptor, the
     guest rewriting the shared slot (here with a different ioctl)
     must not change what the driver goes on to decode *)
  let m, g = boot_null () in
  let ch = raw_channel (m, g) in
  let rewrite = P.encode_request ~grant_ref:0 ~pid:0 (ioctl_req 666) in
  let rewrites = ref 0 in
  let drained =
    ioctl_server ch (M.engine m)
      ~on_drain:(fun ~slot ->
        incr rewrites;
        Ch.inject_raw ch ~slot rewrite)
      ~delay_us:(fun _ -> 100.)
      ~answer:(fun ~execution:_ arg -> P.Rok arg)
  in
  let resp =
    run_in (M.engine m) (fun () ->
        Ch.rpc ch ~trace:0 ~encode:(encode_ioctl 7) ~decode:P.decode_response)
  in
  Alcotest.(check int) "slot rewritten after the drain" 1 !rewrites;
  Alcotest.(check (list int)) "driver decoded the descriptor it drained" [ 7 ] !drained;
  Alcotest.(check bool) "caller answered for its own request" true (resp = P.Rok 7)

(* ---- host-cost gates ----

   Host allocation is deterministic for a given build, so these are
   exact budgets rather than timings.  The forwarding path fills
   scratch descriptors instead of allocating 1 KiB ones per op; the
   retention gate catches the opposite trap of buffers held per ring
   slot, which would add about 96 KiB of live heap per guest
   (3 buffers x 8 slots x 4 channels). *)

let noop_ops m g ~ops =
  run_in (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"app" in
      let fd = Fixtures.ok (Oskit.Vfs.openf g.M.kernel app "/dev/null0") in
      let words0 = Gc.minor_words () in
      for _ = 1 to ops do
        match Oskit.Vfs.ioctl g.M.kernel app fd ~cmd:M.null_ioctl ~arg:0L with
        | Ok 0 -> ()
        | _ -> Alcotest.fail "noop ioctl failed"
      done;
      Gc.minor_words () -. words0)

(* 480 words = 3.75 KB per op on a 64-bit host.  The forwarding path
   with per-op descriptor buffers allocated about 1 354; with events
   queued as data and uncontested waits bypassing the scheduler it
   allocates about 420. *)
let max_minor_words_per_noop = 480.

let test_noop_allocation_budget () =
  let m, g = boot_null () in
  let (_ : float) = noop_ops m g ~ops:1 in
  let ops = 2_000 in
  let per_op = noop_ops m g ~ops /. float_of_int ops in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per noop <= %.0f" per_op max_minor_words_per_noop)
    true
    (per_op <= max_minor_words_per_noop)

(* Live heap per guest of a 16-guest machine after each guest's first
   op: 93.6 KB on a 64-bit host when every op allocated its own
   descriptors (none of which outlived the op).  The bound allows that
   figure plus 2 KB: room for one backend copy per used channel, not
   for buffers per slot. *)
let max_live_kb_per_guest = 95.6

let test_live_heap_per_guest () =
  let guests = 16 in
  Gc.full_major ();
  let live0 = (Gc.quick_stat ()).Gc.live_words in
  let m = M.create () in
  let (_ : Oskit.Defs.device) = M.attach_null m in
  let gs = List.init guests (fun i -> M.add_guest m ~name:(Printf.sprintf "g%d" i) ()) in
  List.iter
    (fun g ->
      Sim.Engine.spawn (M.engine m) (fun () ->
          let app = M.spawn_app m g.M.kernel ~name:"app" in
          let fd = Fixtures.ok (Oskit.Vfs.openf g.M.kernel app "/dev/null0") in
          match Oskit.Vfs.ioctl g.M.kernel app fd ~cmd:M.null_ioctl ~arg:0L with
          | Ok 0 -> ()
          | _ -> Alcotest.fail "first noop failed"))
    gs;
  Sim.Engine.run (M.engine m);
  Gc.full_major ();
  let live1 = (Gc.quick_stat ()).Gc.live_words in
  ignore (Sys.opaque_identity m);
  let kb = float_of_int ((live1 - live0) * (Sys.word_size / 8)) /. 1024. /. float_of_int guests in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f KB live per guest <= %.1f" kb max_live_kb_per_guest)
    true (kb <= max_live_kb_per_guest)

let suites =
  [
    ( "channel.failure_injection",
      [
        Alcotest.test_case "malformed request rejected" `Quick test_malformed_request_rejected;
        Alcotest.test_case "bad vfd rejected" `Quick test_bad_vfd_rejected;
        Alcotest.test_case "unknown pid rejected" `Quick test_unknown_pid_rejected;
        Alcotest.test_case "unexported path refused" `Quick test_open_non_exported_path_rejected;
        QCheck_alcotest.to_alcotest prop_proto_junk_never_crashes;
      ] );
    ( "channel.timing",
      [
        Alcotest.test_case "cold/warm leg accounting" `Quick test_cold_then_warm_legs;
        Alcotest.test_case "notification collapse" `Quick test_notification_collapse;
        Alcotest.test_case "pool cap rejections" `Quick test_pool_cap_counts_rejections;
      ] );
    ( "channel.ring",
      [
        Alcotest.test_case "stale response discarded" `Quick
          test_stale_response_discarded;
        Alcotest.test_case "dropped response leg recovered" `Quick
          test_dropped_response_leg_recovered;
        Alcotest.test_case "notify collapses to one leg; kill wakes" `Quick
          test_notify_single_leg_and_kill;
        Alcotest.test_case "ring pipelines and coalesces doorbells" `Quick
          test_ring_pipelining_coalesces_doorbells;
      ] );
    ( "channel.buffers",
      [
        Alcotest.test_case "overlapping guests decode their own answers" `Quick
          test_overlapping_guests_own_answers;
        Alcotest.test_case "stale-response republish pairs by seq" `Quick
          test_stale_republish_pairs_by_seq;
        Alcotest.test_case "backend copy private from the guest" `Quick
          test_backend_copy_private;
      ] );
    ( "channel.host_cost",
      [
        Alcotest.test_case "noop allocation budget" `Quick test_noop_allocation_budget;
        Alcotest.test_case "live heap per guest" `Quick test_live_heap_per_guest;
      ] );
    ("channel.proto", [ QCheck_alcotest.to_alcotest prop_proto_request_roundtrip ]);
    ( "channel.dispatch",
      [
        Alcotest.test_case "concurrent files, any worker" `Quick
          test_concurrent_files_dispatch_correctly;
      ] );
  ]
