(* Hostile-guest containment tests: request sanitization, per-guest
   quotas (vfds, grant entries, CPU budget) and misbehavior-driven
   quarantine.  The backend is driven both through the real transport
   (Chan_pool.rpc) and directly through Cvd_back.serve_one with
   adversarial descriptors. *)

open Oskit
module M = Paradice.Machine
module CB = Paradice.Cvd_back
module P = Paradice.Proto

let boot_null ?(config = Paradice.Config.default) () =
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g" () in
  (m, g)

let run_in eng f =
  let r = ref None in
  Sim.Engine.spawn eng (fun () -> r := Some (f ()));
  Sim.Engine.run eng;
  Option.get !r

let worker_of m = Kernel.spawn_task (M.driver_kernel m) ~name:"test-worker"

let spawn_app_pid m (g : M.guest) =
  run_in (M.engine m) (fun () ->
      (M.spawn_app m g.M.kernel ~name:"app").Defs.pid)

let errname code =
  match Errno.of_code code with Some e -> Errno.to_string e | None -> "?"

let check_rerr name expect = function
  | P.Rerr code -> Alcotest.(check string) name expect (errname code)
  | P.Rok v -> Alcotest.failf "%s: unexpected Rok %d" name v
  | P.Rpoll_reply _ -> Alcotest.failf "%s: unexpected poll reply" name
  | P.Rbatch_reply _ -> Alcotest.failf "%s: unexpected batch reply" name

(* ---- Proto.validate / decode hardening ---- *)

let test_poll_timeout_decode_rejects_non_finite () =
  (* Regression: the poll timeout travels as raw float bits, and NaN /
     negative / infinite encodings used to decode successfully and
     poison the backend's deadline arithmetic. *)
  List.iter
    (fun bad ->
      let b =
        P.encode_request ~grant_ref:0 ~pid:1
          (P.Rpoll { vfd = 1; want_in = true; want_out = false; timeout_us = bad })
      in
      match P.decode_request b with
      | exception P.Malformed _ -> ()
      | _ -> Alcotest.failf "timeout %f must not decode" bad)
    [ Float.nan; -1.; -0.0001; Float.infinity ];
  (* sane values still decode *)
  let b =
    P.encode_request ~grant_ref:0 ~pid:1
      (P.Rpoll { vfd = 1; want_in = true; want_out = false; timeout_us = 250. })
  in
  match P.decode_request b with
  | P.Rpoll { timeout_us; _ }, _, _ ->
      Alcotest.(check (float 1e-9)) "finite timeout survives" 250. timeout_us
  | _ -> Alcotest.fail "poll did not decode"

let validate_default req =
  P.validate ~max_transfer_bytes:4096 ~poll_timeout_cap_us:1_000_000.
    ~grant_capacity:Hypervisor.Grant_table.capacity req

let test_validate_bounds_fields () =
  let bad name req =
    match validate_default (req, 0, 1) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must be rejected" name
  in
  bad "oversized read" (P.Rread { vfd = 1; buf = 0x1000; len = 4097 });
  bad "negative-as-u64 write len" (P.Rwrite { vfd = 1; buf = 0x1000; len = -1 });
  bad "non-devfs path" (P.Ropen { path = "/etc/passwd" });
  bad "NUL in path" (P.Ropen { path = "/dev/nu\000ll0" });
  bad "dot-dot path" (P.Ropen { path = "/dev/../etc/shadow" });
  bad "huge vfd" (P.Rread { vfd = P.max_vfd + 1; buf = 0; len = 1 });
  bad "mmap gva wrap" (P.Rmmap { vfd = 1; gva = max_int - 1; len = 8192; pgoff = 0 });
  bad "mmap zero len" (P.Rmmap { vfd = 1; gva = 0x1000; len = 0; pgoff = 0 });
  (match validate_default (P.Rnoop, Hypervisor.Grant_table.capacity, 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-table grant_ref must be rejected");
  (* at-cap transfer passes *)
  (match validate_default (P.Rread { vfd = 1; buf = 0x1000; len = 4096 }, 0, 1) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "at-cap read must pass");
  (* oversized poll timeout is clamped, not rejected *)
  match
    validate_default
      (P.Rpoll { vfd = 1; want_in = true; want_out = false; timeout_us = 1e12 }, 0, 1)
  with
  | Ok (P.Rpoll { timeout_us; _ }) ->
      Alcotest.(check (float 1e-6)) "timeout clamped to cap" 1_000_000. timeout_us
  | _ -> Alcotest.fail "huge poll timeout must clamp"

(* ---- through the backend: sanitize rejections are counted ---- *)

let test_oversize_transfer_rejected_before_dispatch () =
  let config =
    { Paradice.Config.default with Paradice.Config.max_transfer_bytes = 4096 }
  in
  let m, g = boot_null ~config () in
  let pid = spawn_app_pid m g in
  let w = worker_of m in
  run_in (M.engine m) (fun () ->
      let link = g.M.link in
      let resp =
        CB.serve_one m.M.backend link w
          (P.encode_request ~grant_ref:0 ~pid
             (P.Rread { vfd = 1; buf = 0x1000; len = 1 lsl 20 }))
      in
      check_rerr "oversize read" "EINVAL" resp;
      Alcotest.(check int) "counted as sanitize rejection" 1 link.CB.rejected;
      Alcotest.(check int) "nothing reached dispatch" 0 link.CB.max_dispatch_len;
      (* same length minus one passes sanitization (fails later on the
         unopened vfd, which is fine: it reached dispatch) *)
      let resp2 =
        CB.serve_one m.M.backend link w
          (P.encode_request ~grant_ref:0 ~pid
             (P.Rread { vfd = 1; buf = 0x1000; len = 4096 }))
      in
      check_rerr "at-cap read, bad vfd" "EINVAL" resp2;
      Alcotest.(check int) "no new sanitize rejection" 1 link.CB.rejected);
  let audit = Hypervisor.Hyp.audit (M.hyp m) in
  Alcotest.(check int) "audit counted the rejection" 1
    audit.Hypervisor.Audit.sanitize_rejections

let test_sanitization_off_is_ablatable () =
  (* the ablation knob: with sanitize_requests = false the oversized
     request reaches dispatch (and fails there on the bad vfd) *)
  let config =
    {
      Paradice.Config.default with
      Paradice.Config.sanitize_requests = false;
      max_transfer_bytes = 4096;
    }
  in
  let m, g = boot_null ~config () in
  let pid = spawn_app_pid m g in
  let w = worker_of m in
  run_in (M.engine m) (fun () ->
      let link = g.M.link in
      let resp =
        CB.serve_one m.M.backend link w
          (P.encode_request ~grant_ref:0 ~pid
             (P.Rread { vfd = 999; buf = 0x1000; len = 1 lsl 20 }))
      in
      check_rerr "unsanitized request reaches dispatch" "EINVAL" resp;
      Alcotest.(check int) "not counted as sanitize rejection" 0 link.CB.rejected)

(* ---- satellite: release-while-armed must drop the subscriber ---- *)

let test_release_with_raising_handler_still_cleans_up () =
  let m = M.create () in
  let (_ : Defs.device) = M.attach_null m in
  (* a device whose release handler always fails *)
  let flaky_ops =
    {
      Defs.default_ops with
      Defs.fop_kinds = [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Fasync ];
      fop_release = (fun _ _ -> Errno.fail Errno.EIO "release explodes");
    }
  in
  let flaky = Defs.make_device ~path:"/dev/flaky0" ~cls:"test" ~driver:"flaky" flaky_ops in
  Devfs.register (Kernel.devfs (M.driver_kernel m)) flaky;
  Paradice.Cvd_back.export m.M.backend "/dev/flaky0";
  let g = M.add_guest m ~name:"g" () in
  let pid = spawn_app_pid m g in
  let w = worker_of m in
  run_in (M.engine m) (fun () ->
      let link = g.M.link in
      let serve req = CB.serve_one m.M.backend link w (P.encode_request ~grant_ref:0 ~pid req) in
      let vfd =
        match serve (P.Ropen { path = "/dev/flaky0" }) with
        | P.Rok vfd -> vfd
        | _ -> Alcotest.fail "open failed"
      in
      (* arm fasync: the worker subscribes to driver notifications *)
      (match serve (P.Rfasync { vfd; on = true }) with
      | P.Rok 0 -> ()
      | _ -> Alcotest.fail "fasync failed");
      let file = (Hashtbl.find link.CB.files vfd).CB.file in
      Alcotest.(check int) "subscriber armed" 1
        (List.length file.Defs.fasync_subscribers);
      (* release while armed: the driver's handler raises, but the
         subscription, open count and descriptor must still go away *)
      check_rerr "raising release surfaces EIO" "EIO"
        (serve (P.Rrelease { vfd }));
      Alcotest.(check int) "subscriber dropped despite the raise" 0
        (List.length file.Defs.fasync_subscribers);
      Alcotest.(check bool) "file closed" true file.Defs.closed;
      Alcotest.(check int) "open count restored" 0 flaky.Defs.open_count;
      Alcotest.(check bool) "vfd gone" false (Hashtbl.mem link.CB.files vfd))

(* ---- per-guest quotas ---- *)

let test_open_vfd_cap () =
  let config =
    { Paradice.Config.default with Paradice.Config.max_open_vfds = 2 }
  in
  let m, g = boot_null ~config () in
  let pid = spawn_app_pid m g in
  let w = worker_of m in
  run_in (M.engine m) (fun () ->
      let link = g.M.link in
      let open_one () =
        CB.serve_one m.M.backend link w
          (P.encode_request ~grant_ref:0 ~pid (P.Ropen { path = "/dev/null0" }))
      in
      (match (open_one (), open_one ()) with
      | P.Rok _, P.Rok _ -> ()
      | _ -> Alcotest.fail "first two opens must succeed");
      check_rerr "third open hits the vfd cap" "EBUSY" (open_one ());
      Alcotest.(check int) "quota breach counted" 1 link.CB.quota_breaches;
      Alcotest.(check int) "only two vfds live" 2 (Hashtbl.length link.CB.files))

let test_grant_entry_quota () =
  let config =
    { Paradice.Config.default with Paradice.Config.max_grant_entries = 4 }
  in
  let m, g = boot_null ~config () in
  let table = Option.get (Hypervisor.Hyp.grant_table_of (M.hyp m) g.M.vm) in
  Alcotest.(check int) "quota taken from config" 4
    (Hypervisor.Grant_table.quota table);
  let one = [ Hypervisor.Grant_table.Copy_to_user { addr = 0x1000; len = 8 } ] in
  let refs = List.init 4 (fun _ -> Hypervisor.Grant_table.declare table one) in
  Alcotest.(check int) "four entries outstanding" 4
    (Hypervisor.Grant_table.active_entries table);
  (match Hypervisor.Grant_table.declare table one with
  | exception Hypervisor.Grant_table.Quota_exceeded -> ()
  | _ -> Alcotest.fail "fifth declare must breach the quota");
  Alcotest.(check int) "breach counted" 1
    (Hypervisor.Grant_table.quota_breaches table);
  (* releasing frees quota again *)
  Hypervisor.Grant_table.release table (List.hd refs);
  let r = Hypervisor.Grant_table.declare table one in
  Alcotest.(check bool) "declare works after release" true (r >= 0);
  (* the backend absorbs the breach into the guest's misbehavior record *)
  let pid = spawn_app_pid m g in
  let w = worker_of m in
  run_in (M.engine m) (fun () ->
      let link = g.M.link in
      ignore
        (CB.serve_one m.M.backend link w
           (P.encode_request ~grant_ref:0 ~pid P.Rnoop));
      Alcotest.(check int) "backend scored the grant-quota breach" 1
        link.CB.quota_breaches;
      Alcotest.(check bool) "score moved" true (link.CB.score > 0))

let test_cpu_budget_throttles () =
  let config =
    {
      Paradice.Config.default with
      Paradice.Config.cpu_budget_us = 1.0;
      cpu_budget_window_us = 1_000.;
      quarantine_threshold = 0 (* isolate the rate limiter *);
    }
  in
  let m, g = boot_null ~config () in
  let pid = spawn_app_pid m g in
  let w = worker_of m in
  run_in (M.engine m) (fun () ->
      let link = g.M.link in
      let t0 = Sim.Engine.now (M.engine m) in
      (* each open+release charges ~2 syscalls; a dozen rounds blow
         well past a 1us budget per 1ms window *)
      for _ = 1 to 12 do
        (match
           CB.serve_one m.M.backend link w
             (P.encode_request ~grant_ref:0 ~pid (P.Ropen { path = "/dev/null0" }))
         with
        | P.Rok vfd ->
            ignore
              (CB.serve_one m.M.backend link w
                 (P.encode_request ~grant_ref:0 ~pid (P.Rrelease { vfd })))
        | _ -> Alcotest.fail "open failed under budget")
      done;
      let elapsed = Sim.Engine.now (M.engine m) -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "throttled at least once (%d events)"
           link.CB.throttle_events)
        true
        (link.CB.throttle_events > 0);
      Alcotest.(check bool)
        (Printf.sprintf "throttling spent window time (%.0fus)" elapsed)
        true
        (elapsed >= config.Paradice.Config.cpu_budget_window_us);
      Alcotest.(check bool) "never quarantined for being slow" false
        link.CB.quarantined)

(* ---- quarantine ---- *)

let test_quarantine_isolates_attacker_keeps_victim () =
  let config =
    { Paradice.Config.default with Paradice.Config.quarantine_threshold = 20 }
  in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let attacker = M.add_guest m ~name:"attacker" () in
  let victim = M.add_guest m ~name:"victim" () in
  let att_pid = spawn_app_pid m attacker in
  let vic_pid = spawn_app_pid m victim in
  let w = worker_of m in
  run_in (M.engine m) (fun () ->
      let link = attacker.M.link in
      (* open a file and leave grants outstanding so quarantine has
         state to tear down *)
      (match
         CB.serve_one m.M.backend link w
           (P.encode_request ~grant_ref:0 ~pid:att_pid
              (P.Ropen { path = "/dev/null0" }))
       with
      | P.Rok _ -> ()
      | _ -> Alcotest.fail "attacker open failed");
      let table =
        Option.get (Hypervisor.Hyp.grant_table_of (M.hyp m) attacker.M.vm)
      in
      ignore
        (Hypervisor.Grant_table.declare table
           [ Hypervisor.Grant_table.Copy_to_user { addr = 0x1000; len = 64 } ]);
      (* malformed storm: 4 x score_malformed = 20 = threshold *)
      let junk = Bytes.make P.slot_size '\xee' in
      for _ = 1 to 4 do
        ignore (CB.serve_one m.M.backend link w junk)
      done;
      Alcotest.(check bool) "attacker quarantined" true link.CB.quarantined;
      Alcotest.(check int) "attacker grants revoked" 0
        (Hypervisor.Grant_table.active_entries table);
      Alcotest.(check int) "attacker files torn down" 0
        (Hashtbl.length link.CB.files);
      let dead = ref 0 and total = ref 0 in
      Paradice.Chan_pool.iter_channels link.CB.pool (fun c ->
          incr total;
          if Paradice.Channel.is_dead c then incr dead);
      Alcotest.(check int) "every attacker channel poisoned" !total !dead;
      (* post-quarantine requests are refused outright *)
      check_rerr "post-quarantine request refused" "EPERM"
        (CB.serve_one m.M.backend link w
           (P.encode_request ~grant_ref:0 ~pid:att_pid P.Rnoop));
      (* the victim's service is untouched *)
      let vic_resp =
        Paradice.Chan_pool.rpc victim.M.link.CB.pool ~trace:0
          ~encode:(P.encoded (P.encode_request ~grant_ref:0 ~pid:vic_pid P.Rnoop))
          ~decode:P.decode_response
      in
      Alcotest.(check bool) "victim noop still served" true (vic_resp = P.Rok 0);
      let vdead = ref 0 in
      Paradice.Chan_pool.iter_channels victim.M.link.CB.pool (fun c ->
          if Paradice.Channel.is_dead c then incr vdead);
      Alcotest.(check int) "no victim channel touched" 0 !vdead);
  let audit = Hypervisor.Hyp.audit (M.hyp m) in
  Alcotest.(check int) "audit counted one quarantine" 1
    audit.Hypervisor.Audit.quarantines;
  Alcotest.(check bool) "backend itself is not killed" false
    (CB.is_killed m.M.backend)

let test_threshold_zero_never_quarantines () =
  let config =
    { Paradice.Config.default with Paradice.Config.quarantine_threshold = 0 }
  in
  let m, g = boot_null ~config () in
  let w = worker_of m in
  run_in (M.engine m) (fun () ->
      let link = g.M.link in
      let junk = Bytes.make P.slot_size '\xee' in
      for _ = 1 to 100 do
        ignore (CB.serve_one m.M.backend link w junk)
      done;
      Alcotest.(check int) "all counted" 100 link.CB.malformed;
      Alcotest.(check bool) "score accumulates" true (link.CB.score > 0);
      Alcotest.(check bool) "but never quarantined" false link.CB.quarantined)

(* ---- chan-pool fairness: saturating + light guest ---- *)

let test_pool_cap_saturation_spares_light_guest () =
  let config =
    { Paradice.Config.default with Paradice.Config.max_queued_ops = 3 }
  in
  let m = M.create ~config () in
  let (_ : Devices.Evdev.t) = M.attach_mouse m in
  let (_ : Defs.device) = M.attach_null m in
  let heavy = M.add_guest m ~name:"heavy" () in
  let light = M.add_guest m ~name:"light" () in
  let heavy_busy = ref 0 and light_ok = ref 0 and light_errors = ref 0 in
  (* the saturating guest: 8 blocking mouse reads against a cap of 3 *)
  for i = 1 to 8 do
    Sim.Engine.spawn (M.engine m) (fun () ->
        let app = M.spawn_app m heavy.M.kernel ~name:(Printf.sprintf "h%d" i) in
        match Vfs.openf heavy.M.kernel app "/dev/input/event0" with
        | Ok fd -> (
            let buf = Task.alloc_buf app 64 in
            match Vfs.read heavy.M.kernel app fd ~buf ~len:64 with
            | Error Errno.EBUSY -> incr heavy_busy
            | _ -> ())
        | Error Errno.EBUSY -> incr heavy_busy
        | Error _ -> ())
  done;
  (* the light guest: 20 no-ops, issued while the heavy guest saturates *)
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m light.M.kernel ~name:"light" in
      let req = P.encode_request ~grant_ref:0 ~pid:app.Defs.pid P.Rnoop in
      for _ = 1 to 20 do
        match
          Paradice.Chan_pool.rpc light.M.link.CB.pool ~trace:0 ~encode:(P.encoded req)
            ~decode:P.decode_response
        with
        | P.Rok 0 -> incr light_ok
        | _ -> incr light_errors
        | exception _ -> incr light_errors
      done);
  Sim.Engine.run ~until:200_000. (M.engine m);
  Alcotest.(check int) "heavy guest hit its own cap" 5 !heavy_busy;
  Alcotest.(check int) "light guest: all ops served" 20 !light_ok;
  Alcotest.(check int) "light guest: no failures" 0 !light_errors;
  let ls = Paradice.Chan_pool.stats light.M.link.CB.pool in
  Alcotest.(check int) "light guest never rejected busy" 0
    ls.Paradice.Chan_pool.rejected_busy

let test_pool_least_loaded_avoids_parked_worker () =
  (* one worker parks in a blocking read; subsequent operations must be
     routed to the free channels, not queued behind it *)
  let m = M.create () in
  let (_ : Devices.Evdev.t) = M.attach_mouse m in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"g" () in
  let noops_done = ref 0 in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:"parker" in
      match Vfs.openf g.M.kernel app "/dev/input/event0" with
      | Ok fd ->
          let buf = Task.alloc_buf app 64 in
          ignore (Vfs.read g.M.kernel app fd ~buf ~len:64)
      | Error _ -> Alcotest.fail "mouse open failed");
  Sim.Engine.spawn (M.engine m) (fun () ->
      (* let the parked read claim its channel first *)
      Sim.Engine.wait 1_000.;
      let app = M.spawn_app m g.M.kernel ~name:"noops" in
      let req = P.encode_request ~grant_ref:0 ~pid:app.Defs.pid P.Rnoop in
      for _ = 1 to 12 do
        match
          Paradice.Chan_pool.rpc g.M.link.CB.pool ~trace:0 ~encode:(P.encoded req)
            ~decode:P.decode_response
        with
        | P.Rok 0 -> incr noops_done
        | _ -> Alcotest.fail "noop failed"
      done);
  Sim.Engine.run ~until:100_000. (M.engine m);
  Alcotest.(check int) "noops unaffected by the parked worker" 12 !noops_done;
  (* the channel holding the blocked read carried only the parker's own
     rpcs (the open, then the read that parked it) — none of the noops *)
  let parked_rpcs = ref (-1) and other_rpcs = ref 0 in
  Paradice.Chan_pool.iter_channels g.M.link.CB.pool (fun c ->
      let s = Paradice.Channel.stats c in
      if Paradice.Channel.load c >= Paradice.Channel.ring_slots c then
        parked_rpcs := s.Paradice.Channel.rpcs
      else other_rpcs := !other_rpcs + s.Paradice.Channel.rpcs);
  Alcotest.(check int) "parked channel got no extra work" 2 !parked_rpcs;
  Alcotest.(check int) "free channels carried the noops" 12 !other_rpcs

let suites =
  [
    ( "containment.sanitize",
      [
        Alcotest.test_case "poll timeout decode rejects non-finite" `Quick
          test_poll_timeout_decode_rejects_non_finite;
        Alcotest.test_case "validate bounds every field" `Quick
          test_validate_bounds_fields;
        Alcotest.test_case "oversize transfer rejected pre-dispatch" `Quick
          test_oversize_transfer_rejected_before_dispatch;
        Alcotest.test_case "sanitization is ablatable" `Quick
          test_sanitization_off_is_ablatable;
        Alcotest.test_case "raising release still cleans up" `Quick
          test_release_with_raising_handler_still_cleans_up;
      ] );
    ( "containment.quotas",
      [
        Alcotest.test_case "open vfd cap" `Quick test_open_vfd_cap;
        Alcotest.test_case "grant entry quota" `Quick test_grant_entry_quota;
        Alcotest.test_case "cpu budget throttles" `Quick test_cpu_budget_throttles;
      ] );
    ( "containment.quarantine",
      [
        Alcotest.test_case "attacker cut off, victim untouched" `Quick
          test_quarantine_isolates_attacker_keeps_victim;
        Alcotest.test_case "threshold 0 never quarantines" `Quick
          test_threshold_zero_never_quarantines;
      ] );
    ( "containment.fairness",
      [
        Alcotest.test_case "saturating guest spares light guest" `Quick
          test_pool_cap_saturation_spares_light_guest;
        Alcotest.test_case "least-loaded avoids parked worker" `Quick
          test_pool_least_loaded_avoids_parked_worker;
      ] );
  ]
