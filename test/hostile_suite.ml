(* Adversarial fuzzing suite, run by `dune build @check` (or
   @hostile-suite): every guest is treated as compromised and the
   backend must contain it.

   Three campaigns, all on fixed Sim.Rng seeds so runs replay exactly:

   1. Descriptor fuzz: for each seed, >=1000 mutated descriptors are
      fed straight into [Cvd_back.serve_one] — valid encodings with
      random byte flips, plus fully random slots.  Invariants: no
      exception ever escapes serve_one (every descriptor gets a
      response), and nothing larger than [Config.max_transfer_bytes]
      ever reaches dispatch.
   2. Through-ring attack: raw bytes written into live ring slots with
      [Channel.inject_raw] while the real backend workers consume
      them.  The attacker must end up quarantined without the engine
      observing an escaped exception.
   3. Quarantine isolation: a victim guest runs a fixed noop workload
      solo, then again while a sibling attacker misbehaves into
      quarantine.  The victim's elapsed (simulated) time must stay
      within 20% of the solo baseline.

   4. Grammar-aware mutation: descriptors from the spec-derived
      generator ([Proto.Fuzz]) — a valid skeleton with one element
      driven hostile (a header word, a batch count, a record length or
      tag, or one declared field under its own policy) — injected into
      live ring slots with [Channel.inject_raw] while the real workers
      consume.  The [Wire_spec.Coverage] registry records which decode
      branches and sanitizer rejects each seed reaches; the same
      harness re-run with the blind byte-flip mutator is the baseline,
      and the grammar campaign must reach strictly more distinct
      decode branches.

   5. Per-class ioctl grammar sweep: for each of the five analyzed
      device classes (gpu, input, camera, audio, net) the fact-driven
      generator ([Ioctl_guard.Fuzz]) builds argument structs in the
      app's own address space — well-formed seeds mixed with
      single-fact violations — and pumps them through
      [Cvd_back.serve_one] against the real device.  Gates: no escaped
      exception; every fact-violating input is rejected with EINVAL by
      the generated sanitizer; each class's campaign reaches strictly
      more [handler.<class>.*]/[sanitize.<class>.*] branches than the
      transport-level grammar campaign (which never speaks the ioctl
      argument grammar); a hostile sibling spamming violations is
      quarantined while a victim guest keeps 100% noop service; and
      the five clean workloads produce bit-identical simulated-time
      metrics with sanitizers on vs. off.

   A machine-readable summary (including per-seed coverage) is written
   to HOSTILE_fuzz.json for the CI artifact. *)

module M = Paradice.Machine
module CB = Paradice.Cvd_back
module P = Paradice.Proto
open Oskit

let seeds =
  [
    0x5EED_0001L; 0x5EED_0002L; 0x5EED_0003L; 0x5EED_0004L;
    0x5EED_0005L; 0x5EED_0006L; 0x5EED_0007L; 0x5EED_0008L;
    0x5EED_0009L; 0x5EED_000AL; 0x5EED_000BL; 0x5EED_000CL;
  ]

let descriptors_per_seed = 1000
let victim_noops = 200

let violations = ref []

let violation fmt =
  Printf.ksprintf (fun s -> violations := s :: !violations) fmt

let run_in eng f =
  let r = ref None in
  Sim.Engine.spawn eng (fun () -> r := Some (f ()));
  Sim.Engine.run eng;
  Option.get !r

(* ---- campaign 1: descriptor fuzz through serve_one ---- *)

type fuzz_totals = {
  mutable served : int;
  mutable ok : int;
  mutable err : int;
  mutable poll_replies : int;
  mutable escapes : int;
  mutable malformed : int;
  mutable sanitize_rejected : int;
}

let totals =
  {
    served = 0;
    ok = 0;
    err = 0;
    poll_replies = 0;
    escapes = 0;
    malformed = 0;
    sanitize_rejected = 0;
  }

let paths =
  [|
    "/dev/null0"; "/dev/input/event0"; "/etc/passwd"; "/dev/../etc/shadow";
    "/dev/nu\000ll0"; ""; "/"; String.make 300 'A';
  |]

let random_request rng =
  let vfd = Sim.Rng.int rng 12 - 1 in
  match Sim.Rng.int rng 11 with
  | 0 -> P.Rnoop
  | 1 -> P.Ropen { path = paths.(Sim.Rng.int rng (Array.length paths)) }
  | 2 -> P.Rrelease { vfd }
  | 3 ->
      P.Rread
        { vfd; buf = Sim.Rng.int rng 0x20000; len = Sim.Rng.int rng (1 lsl 24) }
  | 4 ->
      P.Rwrite
        { vfd; buf = Sim.Rng.int rng 0x20000; len = Sim.Rng.int rng (1 lsl 24) }
  | 5 ->
      P.Rioctl
        { vfd; cmd = Sim.Rng.int rng 0x1000000; arg = Sim.Rng.next_int64 rng }
  | 6 ->
      P.Rmmap
        {
          vfd;
          gva = Sim.Rng.int rng max_int;
          len = Sim.Rng.int rng (1 lsl 20);
          pgoff = Sim.Rng.int rng 16;
        }
  | 7 -> P.Rfault { vfd; gva = Sim.Rng.int rng max_int }
  | 8 ->
      P.Rmunmap
        { vfd; gva = Sim.Rng.int rng max_int; len = Sim.Rng.int rng (1 lsl 20) }
  | 9 ->
      let timeout_us =
        match Sim.Rng.int rng 5 with
        | 0 -> Float.nan
        | 1 -> -.Sim.Rng.float rng 1e6
        | 2 -> Float.infinity
        | 3 -> Sim.Rng.float rng 1e12
        | _ -> Sim.Rng.float rng 500.
      in
      P.Rpoll
        {
          vfd;
          want_in = Sim.Rng.bool rng;
          want_out = Sim.Rng.bool rng;
          timeout_us;
        }
  | _ -> P.Rfasync { vfd; on = Sim.Rng.bool rng }

let mutated_descriptor rng ~pid =
  if Sim.Rng.int rng 5 = 0 then
    (* fully random slot *)
    Bytes.init P.slot_size (fun _ -> Char.chr (Sim.Rng.int rng 256))
  else begin
    let grant_ref =
      if Sim.Rng.bool rng then Sim.Rng.int rng 8
      else Sim.Rng.int rng 65536 - 32768
    in
    let pid = if Sim.Rng.bool rng then pid else Sim.Rng.int rng 65536 - 100 in
    let b =
      try P.encode_request ~grant_ref ~pid (random_request rng)
      with _ -> Bytes.make P.slot_size '\x00'
    in
    (* random byte flips over the encoded descriptor *)
    if Sim.Rng.int rng 5 > 0 then begin
      let flips = 1 + Sim.Rng.int rng 24 in
      for _ = 1 to flips do
        Bytes.set b
          (Sim.Rng.int rng (Bytes.length b))
          (Char.chr (Sim.Rng.int rng 256))
      done
    end;
    b
  end

let fuzz_seed seed =
  let config =
    {
      Paradice.Config.default with
      (* keep dispatching: the point is to pound the full serve path,
         not to stop at the first quarantine *)
      Paradice.Config.quarantine_threshold = 0;
    }
  in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:"fuzz" () in
  let rng = Sim.Rng.create ~seed in
  run_in (M.engine m) (fun () ->
      let link = g.M.link in
      let w = Kernel.spawn_task (M.driver_kernel m) ~name:"fuzz-worker" in
      let app = M.spawn_app m g.M.kernel ~name:"fuzz-app" in
      let pid = app.Defs.pid in
      (* a couple of live vfds so mutations can hit real open files *)
      for _ = 1 to 2 do
        ignore
          (CB.serve_one m.M.backend link w
             (P.encode_request ~grant_ref:0 ~pid (P.Ropen { path = "/dev/null0" })))
      done;
      for i = 1 to descriptors_per_seed do
        let desc = mutated_descriptor rng ~pid in
        match CB.serve_one m.M.backend link w desc with
        | P.Rok _ ->
            totals.served <- totals.served + 1;
            totals.ok <- totals.ok + 1
        | P.Rerr _ ->
            totals.served <- totals.served + 1;
            totals.err <- totals.err + 1
        | P.Rpoll_reply _ ->
            totals.served <- totals.served + 1;
            totals.poll_replies <- totals.poll_replies + 1
        | P.Rbatch_reply _ ->
            (* a mutated descriptor that happens to be a well-formed
               multi-op batch: every sub-op went through the same
               validate gate, so this is a served descriptor too *)
            totals.served <- totals.served + 1;
            totals.ok <- totals.ok + 1
        | exception e ->
            totals.escapes <- totals.escapes + 1;
            violation "seed=%#Lx desc=%d: exception escaped serve_one: %s" seed
              i (Printexc.to_string e)
      done;
      totals.malformed <- totals.malformed + link.CB.malformed;
      totals.sanitize_rejected <- totals.sanitize_rejected + link.CB.rejected;
      if link.CB.max_dispatch_len > config.Paradice.Config.max_transfer_bytes
      then
        violation "seed=%#Lx: dispatch saw len %d past the %d cap" seed
          link.CB.max_dispatch_len config.Paradice.Config.max_transfer_bytes)

(* ---- campaign 2: raw injection into live ring slots ---- *)

let through_ring_attack seed =
  let m = M.create () in
  let (_ : Defs.device) = M.attach_null m in
  let attacker = M.add_guest m ~name:"attacker" () in
  let victim = M.add_guest m ~name:"victim" () in
  let rng = Sim.Rng.create ~seed in
  let vic_ok = ref 0 in
  Sim.Engine.spawn (M.engine m) (fun () ->
      (* hostile guest kernel: scribble over every ring slot it has
         mapped, repeatedly, while the real workers consume *)
      for _round = 1 to 30 do
        Paradice.Chan_pool.iter_channels attacker.M.link.CB.pool (fun c ->
            for slot = 0 to Paradice.Channel.ring_slots c - 1 do
              let junk =
                Bytes.init P.slot_size (fun _ ->
                    Char.chr (Sim.Rng.int rng 256))
              in
              Paradice.Channel.inject_raw c ~slot junk
            done);
        Sim.Engine.wait 50.
      done);
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m victim.M.kernel ~name:"victim" in
      let req = P.encode_request ~grant_ref:0 ~pid:app.Defs.pid P.Rnoop in
      for _ = 1 to victim_noops do
        match Paradice.Chan_pool.rpc victim.M.link.CB.pool ~trace:0 ~encode:(P.encoded req)
                ~decode:P.decode_response
        with
        | P.Rok 0 -> incr vic_ok
        | _ -> ()
        | exception _ -> ()
      done);
  (try Sim.Engine.run ~until:5_000_000. (M.engine m)
   with e ->
     violation "through-ring seed=%#Lx: exception escaped the engine: %s" seed
       (Printexc.to_string e));
  if not attacker.M.link.CB.quarantined then
    violation "through-ring seed=%#Lx: attacker was not quarantined" seed;
  if victim.M.link.CB.quarantined then
    violation "through-ring seed=%#Lx: victim got quarantined" seed;
  if !vic_ok <> victim_noops then
    violation "through-ring seed=%#Lx: victim served %d/%d noops" seed !vic_ok
      victim_noops;
  let audit = Hypervisor.Hyp.audit (M.hyp m) in
  if audit.Hypervisor.Audit.quarantines <> 1 then
    violation "through-ring seed=%#Lx: expected 1 quarantine, audit says %d"
      seed audit.Hypervisor.Audit.quarantines

(* ---- campaign 4: grammar-aware mutation coverage ---- *)

module W = Paradice.Wire_spec

let is_decode_label l =
  String.starts_with ~prefix:"decode." l || String.starts_with ~prefix:"reject." l

let is_sanitize_label l = String.starts_with ~prefix:"sanitize." l

(* One injection run: [descriptors_per_seed] slots written with
   [Channel.inject_raw] while the backend workers consume them.
   Quarantine is disabled (threshold 0) so decoding never stops at the
   first misbehavior score — the point is grammar coverage, not the
   quarantine reflex (campaign 2 owns that). *)
let inject_campaign ~tag ~descriptor seed =
  let config =
    {
      Paradice.Config.default with
      Paradice.Config.quarantine_threshold = 0;
    }
  in
  let m = M.create ~config () in
  let (_ : Defs.device) = M.attach_null m in
  let g = M.add_guest m ~name:tag () in
  let rng = Sim.Rng.create ~seed in
  let injected = ref 0 in
  Sim.Engine.spawn (M.engine m) (fun () ->
      let app = M.spawn_app m g.M.kernel ~name:(tag ^ "-app") in
      let pid = app.Defs.pid in
      while !injected < descriptors_per_seed do
        Paradice.Chan_pool.iter_channels g.M.link.CB.pool (fun c ->
            for slot = 0 to Paradice.Channel.ring_slots c - 1 do
              if !injected < descriptors_per_seed then begin
                Paradice.Channel.inject_raw c ~slot (descriptor rng ~pid);
                incr injected
              end
            done);
        Sim.Engine.wait 50.
      done);
  try Sim.Engine.run ~until:10_000_000. (M.engine m)
  with e ->
    violation "%s seed=%#Lx: exception escaped the engine: %s" tag seed
      (Printexc.to_string e)

(* Run one mutator over every seed with coverage on; returns the
   per-seed (decode, sanitize) distinct-branch counts, the
   campaign-wide unions, and the union label set itself (campaign 5
   compares its per-class families against it). *)
let coverage_campaign ~tag ~descriptor =
  let union : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  W.Coverage.enable ();
  let per_seed =
    List.map
      (fun seed ->
        W.Coverage.reset ();
        inject_campaign ~tag ~descriptor seed;
        let snap = W.Coverage.snapshot () in
        List.iter (fun (l, _) -> Hashtbl.replace union l ()) snap;
        let count p = List.length (List.filter (fun (l, _) -> p l) snap) in
        (seed, count is_decode_label, count is_sanitize_label))
      seeds
  in
  W.Coverage.disable ();
  let labels = Hashtbl.fold (fun l () acc -> l :: acc) union [] in
  let union_count p = List.length (List.filter p labels) in
  (per_seed, union_count is_decode_label, union_count is_sanitize_label, labels)

let grammar_descriptor rng ~pid =
  P.Fuzz.descriptor rng ~grant_ref:(Sim.Rng.int rng 8) ~pid

let blind_descriptor rng ~pid = mutated_descriptor rng ~pid

(* ---- campaign 5: per-class ioctl grammar sweep ---- *)

module IG = Paradice.Ioctl_guard
module F = Analyzer.Facts

let ioctl_seeds =
  [ 0x10C7_0001L; 0x10C7_0002L; 0x10C7_0003L; 0x10C7_0004L; 0x10C7_0005L ]

let ioctl_descs_per_seed = 500

(* One attach function + device path per analyzed class. *)
let ioctl_classes =
  [
    ("gpu", (fun m -> ignore (M.attach_gpu m ())), "/dev/dri/card0");
    ("input", (fun m -> ignore (M.attach_mouse m)), "/dev/input/event0");
    ("camera", (fun m -> ignore (M.attach_camera m ())), "/dev/video0");
    ("audio", (fun m -> ignore (M.attach_audio m)), "/dev/snd/pcm0");
    ("net", (fun m -> ignore (M.attach_netmap m)), "/dev/netmap");
  ]

let is_class_handler_label cls l =
  String.starts_with ~prefix:("handler." ^ cls ^ ".") l

let is_class_sanitize_label cls l =
  String.starts_with ~prefix:("sanitize." ^ cls ^ ".") l

let guard_limits config =
  {
    W.max_transfer_bytes = config.Paradice.Config.max_transfer_bytes;
    poll_timeout_cap_us = config.Paradice.Config.poll_timeout_cap_us;
    grant_capacity = Hypervisor.Grant_table.capacity;
  }

(* The fact-driven generators build argument structs directly in the
   app's address space, exactly where a real guest process would put
   them. *)
let guest_mem app =
  {
    IG.Fuzz.alloc = (fun n -> Task.alloc_buf app (max n 8));
    write32 = (fun ~addr v -> Task.write_u32 app ~gva:addr v);
    write64 = (fun ~addr v -> Task.write_u64 app ~gva:addr v);
  }

(* A fuzz-class machine: device attached, one guest, quarantine off
   (keep dispatching) and grant validation off (the handlers' own
   copies must run, not be cut short at the grant gate).  [f] gets the
   opened vfd plus everything needed to pump descriptors. *)
let with_class_machine ~dev_class ~attach ~path ~config f =
  let m = M.create ~config () in
  attach m;
  let g = M.add_guest m ~name:(dev_class ^ "-fuzz") () in
  run_in (M.engine m) (fun () ->
      let link = g.M.link in
      let w = Kernel.spawn_task (M.driver_kernel m) ~name:"class-fuzz-worker" in
      let app = M.spawn_app m g.M.kernel ~name:(dev_class ^ "-app") in
      let pid = app.Defs.pid in
      let vfd =
        match
          CB.serve_one m.M.backend link w
            (P.encode_request ~grant_ref:0 ~pid (P.Ropen { path }))
        with
        | P.Rok vfd -> vfd
        | _ ->
            violation "class=%s: open %s failed" dev_class path;
            -1
      in
      (* blocking handlers (e.g. a streaming camera's DQBUF on an
         empty queue) must return EAGAIN, not wedge the sweep *)
      (match Hashtbl.find_opt link.CB.files vfd with
      | Some fs -> fs.CB.file.Defs.nonblock <- true
      | None -> ());
      let serve req =
        CB.serve_one m.M.backend link w (P.encode_request ~grant_ref:0 ~pid req)
      in
      f ~link ~app ~vfd ~serve)

let class_config =
  {
    Paradice.Config.default with
    Paradice.Config.quarantine_threshold = 0;
    validate_grants = false;
  }

(* One seed of the per-class sweep: [ioctl_descs_per_seed] descriptors,
   half well-formed, half carrying one injected fact violation (or a
   wild pointer). *)
let class_fuzz_seed ~dev_class ~attach ~path ~served ~rejected ~escapes seed =
  with_class_machine ~dev_class ~attach ~path ~config:class_config
    (fun ~link ~app ~vfd ~serve ->
      let rng = Sim.Rng.create ~seed in
      let rand n = Sim.Rng.int rng n in
      let mem = guest_mem app in
      let limits = guard_limits class_config in
      let cmds = Array.of_list (IG.Fuzz.cmds ~dev_class) in
      for i = 1 to ioctl_descs_per_seed do
        let cmd = cmds.(rand (Array.length cmds)) in
        let arg =
          if rand 2 = 0 then IG.Fuzz.mutate ~rand ~limits mem ~dev_class ~cmd
          else IG.Fuzz.seed ~rand mem ~dev_class ~cmd
        in
        match serve (P.Rioctl { vfd; cmd; arg }) with
        | P.Rok _ | P.Rerr _ | P.Rpoll_reply _ | P.Rbatch_reply _ -> incr served
        | exception e ->
            incr escapes;
            violation "class=%s seed=%#Lx desc=%d: exception escaped: %s"
              dev_class seed i (Printexc.to_string e)
      done;
      (* drop the fd so device-side activity (camera sensor, NIC)
         quiesces and the engine can go idle *)
      ignore (serve (P.Rrelease { vfd }));
      rejected := !rejected + link.CB.rejected)

type class_result = {
  cr_class : string;
  cr_served : int;
  cr_rejected : int;
  cr_escapes : int;
  cr_per_seed : (int64 * int * int) list; (* seed, handler, sanitize *)
  cr_handler_branches : int;
  cr_sanitize_branches : int;
}

let class_campaign ~dev_class ~attach ~path =
  let union : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let served = ref 0 and rejected = ref 0 and escapes = ref 0 in
  W.Coverage.enable ();
  let per_seed =
    List.map
      (fun seed ->
        W.Coverage.reset ();
        class_fuzz_seed ~dev_class ~attach ~path ~served ~rejected ~escapes
          seed;
        let snap = W.Coverage.snapshot () in
        List.iter (fun (l, _) -> Hashtbl.replace union l ()) snap;
        let count p = List.length (List.filter (fun (l, _) -> p l) snap) in
        ( seed,
          count (is_class_handler_label dev_class),
          count (is_class_sanitize_label dev_class) ))
      ioctl_seeds
  in
  W.Coverage.disable ();
  let union_count p =
    Hashtbl.fold (fun l () acc -> if p l then acc + 1 else acc) union 0
  in
  {
    cr_class = dev_class;
    cr_served = !served;
    cr_rejected = !rejected;
    cr_escapes = !escapes;
    cr_per_seed = per_seed;
    cr_handler_branches = union_count (is_class_handler_label dev_class);
    cr_sanitize_branches = union_count (is_class_sanitize_label dev_class);
  }

let check_offset_width = function
  | F.Check_range { offset; width; _ } -> (offset, width)
  | F.Check_len { offset; width; _ } -> (offset, width)

(* Deterministic rejection sweep: for every generated check that has a
   violating value, seed a well-formed struct, overwrite the checked
   field with the violation, and require the sanitizer to answer
   EINVAL and bump the link's reject counter. *)
let reject_sweep ~dev_class ~attach ~path =
  with_class_machine ~dev_class ~attach ~path ~config:class_config
    (fun ~link ~app ~vfd ~serve ->
      let rng = Sim.Rng.create ~seed:0x7E7E_0001L in
      let rand n = Sim.Rng.int rng n in
      let mem = guest_mem app in
      let limits = guard_limits class_config in
      let facts =
        match Analyzer.Classes.facts_for dev_class with
        | Some f -> f
        | None ->
            violation "class=%s: no facts in the registry" dev_class;
            { F.fd_driver = dev_class; fd_version = ""; fd_handlers = [] }
      in
      let einval = Errno.to_code Errno.EINVAL in
      List.iter
        (fun hf ->
          List.iter
            (fun c ->
              match IG.Fuzz.violation_value ~rand ~limits c with
              | None -> ()
              | Some bad ->
                  let before = link.CB.rejected in
                  let arg =
                    IG.Fuzz.seed ~rand mem ~dev_class ~cmd:hf.F.hf_cmd
                  in
                  let offset, width = check_offset_width c in
                  let addr = Int64.to_int arg + offset in
                  if width = 8 then
                    mem.IG.Fuzz.write64 ~addr (Int64.of_int bad)
                  else mem.IG.Fuzz.write32 ~addr bad;
                  (match serve (P.Rioctl { vfd; cmd = hf.F.hf_cmd; arg }) with
                  | P.Rerr e when e = einval -> ()
                  | r ->
                      violation
                        "class=%s %s/%s: violating input was not EINVAL \
                         (got %s)"
                        dev_class hf.F.hf_name (F.check_label c)
                        (match r with
                        | P.Rok v -> Printf.sprintf "Rok %d" v
                        | P.Rerr e -> Printf.sprintf "Rerr %d" e
                        | _ -> "other"));
                  if link.CB.rejected <= before then
                    violation
                      "class=%s %s/%s: sanitizer reject did not feed the \
                       link counter"
                      dev_class hf.F.hf_name (F.check_label c))
            (F.checks hf))
        facts.F.fd_handlers)

(* Quarantine isolation at the ioctl grammar level: a sibling guest
   spamming one fact-violating ioctl must cross the misbehavior
   threshold and be cut off, while a victim guest keeps full noop
   service on the same machine. *)
let class_quarantine ~dev_class ~attach ~path =
  let m = M.create () in
  attach m;
  let attacker = M.add_guest m ~name:(dev_class ^ "-attacker") () in
  let victim = M.add_guest m ~name:(dev_class ^ "-victim") () in
  let vic_ok = ref 0 in
  let vic_noops = 50 in
  run_in (M.engine m) (fun () ->
      let rng = Sim.Rng.create ~seed:0xBAD1_0C71L in
      let rand n = Sim.Rng.int rng n in
      let wa = Kernel.spawn_task (M.driver_kernel m) ~name:"atk-worker" in
      let wv = Kernel.spawn_task (M.driver_kernel m) ~name:"vic-worker" in
      let atk = M.spawn_app m attacker.M.kernel ~name:"atk-app" in
      let vic = M.spawn_app m victim.M.kernel ~name:"vic-app" in
      let limits = guard_limits Paradice.Config.default in
      let hostile =
        match Analyzer.Classes.facts_for dev_class with
        | None -> None
        | Some facts ->
            List.find_map
              (fun hf ->
                List.find_map
                  (fun c ->
                    match IG.Fuzz.violation_value ~rand ~limits c with
                    | Some bad -> Some (hf, c, bad)
                    | None -> None)
                  (F.checks hf))
              facts.F.fd_handlers
      in
      match hostile with
      | None -> violation "class=%s: no violating value to quarantine on"
                  dev_class
      | Some (hf, c, bad) ->
          let vfd =
            match
              CB.serve_one m.M.backend attacker.M.link wa
                (P.encode_request ~grant_ref:0 ~pid:atk.Defs.pid
                   (P.Ropen { path }))
            with
            | P.Rok vfd -> vfd
            | _ ->
                violation "class=%s: attacker open failed" dev_class;
                -1
          in
          let mem = guest_mem atk in
          let offset, width = check_offset_width c in
          let tries = ref 0 in
          while (not attacker.M.link.CB.quarantined) && !tries < 60 do
            incr tries;
            let arg = IG.Fuzz.seed ~rand mem ~dev_class ~cmd:hf.F.hf_cmd in
            let addr = Int64.to_int arg + offset in
            if width = 8 then mem.IG.Fuzz.write64 ~addr (Int64.of_int bad)
            else mem.IG.Fuzz.write32 ~addr bad;
            ignore
              (CB.serve_one m.M.backend attacker.M.link wa
                 (P.encode_request ~grant_ref:0 ~pid:atk.Defs.pid
                    (P.Rioctl { vfd; cmd = hf.F.hf_cmd; arg })))
          done;
          let noop =
            P.encode_request ~grant_ref:0 ~pid:vic.Defs.pid P.Rnoop
          in
          for _ = 1 to vic_noops do
            match CB.serve_one m.M.backend victim.M.link wv noop with
            | P.Rok 0 -> incr vic_ok
            | _ -> ()
            | exception _ -> ()
          done);
  if not attacker.M.link.CB.quarantined then
    violation "class=%s: ioctl attacker was not quarantined" dev_class;
  if victim.M.link.CB.quarantined then
    violation "class=%s: victim got quarantined" dev_class;
  if !vic_ok <> vic_noops then
    violation "class=%s: victim served %d/%d noops next to the attacker"
      dev_class !vic_ok vic_noops;
  let audit = Hypervisor.Hyp.audit (M.hyp m) in
  if audit.Hypervisor.Audit.quarantines <> 1 then
    violation "class=%s: expected 1 quarantine, audit says %d" dev_class
      audit.Hypervisor.Audit.quarantines

(* Clean-workload control: the five device-class workloads, run on the
   standard Paradice setup with sanitizers on vs. off, must produce
   bit-identical simulated-time metrics — the generated checks re-read
   arguments without charging simulated time, so honest guests cannot
   observe them. *)
let clean_workloads config =
  let mode = Baselines.Setup.Paradice config in
  let gfx =
    let _m, env = Baselines.Setup.make ~devices:[ Baselines.Setup.Gpu ] mode in
    Workloads.Gfx.run env ~profile:Workloads.Gfx.vbo ~width:640 ~height:480
      ~frames:10 ()
  in
  let cam =
    let _m, env =
      Baselines.Setup.make ~devices:[ Baselines.Setup.Camera ] mode
    in
    Workloads.Camera_app.run env ~width:640 ~height:480 ~frames:10 ()
  in
  let audio =
    let _m, env =
      Baselines.Setup.make ~devices:[ Baselines.Setup.Audio ] mode
    in
    Workloads.Audio_app.run env ~seconds:0.2 ()
  in
  let net =
    let _m, env =
      Baselines.Setup.make ~devices:[ Baselines.Setup.Netmap ] mode
    in
    (Workloads.Netmap_pktgen.run env ~packets:2000 ~batch:64 ())
      .Workloads.Netmap_pktgen.rate_mpps
  in
  let input =
    let _m, env =
      Baselines.Setup.make ~devices:[ Baselines.Setup.Mouse ] mode
    in
    Workloads.Mouse_latency.run env ~moves:20 ()
  in
  [
    ("gfx_fps", gfx);
    ("camera_fps", cam);
    ("audio_rate", audio);
    ("netmap_mpps", net);
    ("mouse_latency_us", input);
  ]

let clean_control () =
  let on =
    clean_workloads { Paradice.Config.default with Paradice.Config.ioctl_guards = true }
  in
  let off =
    clean_workloads { Paradice.Config.default with Paradice.Config.ioctl_guards = false }
  in
  List.iter2
    (fun (name, a) (_, b) ->
      if Int64.bits_of_float a <> Int64.bits_of_float b then
        violation
          "clean workload %s drifted with sanitizers on: on=%.9g off=%.9g"
          name a b)
    on off;
  on

(* ---- campaign 3: victim throughput vs. solo baseline ---- *)

(* Same two-guest machine; the victim runs a fixed noop workload.  When
   [attack] is set the sibling misbehaves its way into quarantine. *)
let victim_elapsed ~attack =
  let m = M.create () in
  let (_ : Defs.device) = M.attach_null m in
  let attacker = M.add_guest m ~name:"attacker" () in
  let victim = M.add_guest m ~name:"victim" () in
  let elapsed = ref nan in
  let vic_ok = ref 0 in
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
      let req = P.encode_request ~grant_ref:0 ~pid:app.Defs.pid P.Rnoop in
      let t0 = Sim.Engine.now (M.engine m) in
      for _ = 1 to victim_noops do
        match Paradice.Chan_pool.rpc victim.M.link.CB.pool ~trace:0 ~encode:(P.encoded req)
                ~decode:P.decode_response
        with
        | P.Rok 0 -> incr vic_ok
        | _ -> ()
        | exception _ -> ()
      done;
      elapsed := Sim.Engine.now (M.engine m) -. t0);
  (try Sim.Engine.run ~until:5_000_000. (M.engine m)
   with e ->
     violation "throughput run (attack=%b): escaped exception: %s" attack
       (Printexc.to_string e));
  if !vic_ok <> victim_noops then
    violation "throughput run (attack=%b): victim served %d/%d" attack !vic_ok
      victim_noops;
  if attack && not attacker.M.link.CB.quarantined then
    violation "throughput run: attacker was not quarantined";
  !elapsed

(* ---- driver ---- *)

let () =
  List.iter fuzz_seed seeds;
  List.iter through_ring_attack [ 0x1AB0_0001L; 0x1AB0_0002L ];
  let grammar_per_seed, grammar_decode, grammar_sanitize, grammar_labels =
    coverage_campaign ~tag:"grammar" ~descriptor:grammar_descriptor
  in
  let _, blind_decode, blind_sanitize, _ =
    coverage_campaign ~tag:"blind" ~descriptor:blind_descriptor
  in
  if grammar_decode <= blind_decode then
    violation
      "grammar-aware mutator reached %d distinct decode branches, blind \
       byte-flips reached %d — grammar must be strictly ahead"
      grammar_decode blind_decode;
  (* campaign 5: per-class ioctl sweeps, gated against the
     transport-level grammar campaign's label set *)
  let class_results =
    List.map
      (fun (dev_class, attach, path) ->
        let r = class_campaign ~dev_class ~attach ~path in
        reject_sweep ~dev_class ~attach ~path;
        class_quarantine ~dev_class ~attach ~path;
        let transport_handler =
          List.length
            (List.filter (is_class_handler_label dev_class) grammar_labels)
        in
        let transport_sanitize =
          List.length
            (List.filter (is_class_sanitize_label dev_class) grammar_labels)
        in
        if r.cr_handler_branches <= transport_handler then
          violation
            "class=%s: ioctl campaign hit %d handler branches, transport \
             grammar hit %d — per-class grammar must be strictly ahead"
            dev_class r.cr_handler_branches transport_handler;
        if r.cr_sanitize_branches <= transport_sanitize then
          violation
            "class=%s: ioctl campaign hit %d sanitize branches, transport \
             grammar hit %d — per-class grammar must be strictly ahead"
            dev_class r.cr_sanitize_branches transport_sanitize;
        if r.cr_sanitize_branches = 0 then
          violation "class=%s: no sanitizer reject branch was ever reached"
            dev_class;
        if r.cr_rejected = 0 then
          violation "class=%s: no hostile descriptor was ever rejected"
            dev_class;
        r)
      ioctl_classes
  in
  let clean_metrics = clean_control () in
  let solo_us = victim_elapsed ~attack:false in
  let attacked_us = victim_elapsed ~attack:true in
  let ratio = attacked_us /. solo_us in
  if Float.is_nan ratio || ratio > 1.2 then
    violation
      "victim throughput degraded past 20%%: solo=%.1fus attacked=%.1fus \
       (ratio %.3f)"
      solo_us attacked_us ratio;
  let n_violations = List.length !violations in
  let oc = open_out "HOSTILE_fuzz.json" in
  Printf.fprintf oc
    {|{
  "seeds": %d,
  "descriptors_per_seed": %d,
  "total_descriptors": %d,
  "responses": { "ok": %d, "err": %d, "poll_replies": %d },
  "malformed": %d,
  "sanitize_rejected": %d,
  "escaped_exceptions": %d,
  "victim_solo_us": %.1f,
  "victim_attacked_us": %.1f,
  "victim_ratio": %.4f,
  "grammar_fuzz": {
    "per_seed": [
%s
    ],
    "decode_branches": %d,
    "sanitize_branches": %d,
    "blind_decode_branches": %d,
    "blind_sanitize_branches": %d
  },
  "class_campaigns": [
%s
  ],
  "clean_control": [
%s
  ],
  "violations": %d
}
|}
    (List.length seeds) descriptors_per_seed totals.served totals.ok totals.err
    totals.poll_replies totals.malformed totals.sanitize_rejected totals.escapes
    solo_us attacked_us ratio
    (String.concat ",\n"
       (List.map
          (fun (seed, decode, sanitize) ->
            Printf.sprintf
              {|      { "seed": "%#Lx", "decode_branches": %d, "sanitize_rejects": %d }|}
              seed decode sanitize)
          grammar_per_seed))
    grammar_decode grammar_sanitize blind_decode blind_sanitize
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              {|    { "class": "%s", "served": %d, "rejected": %d, "escapes": %d,
      "handler_branches": %d, "sanitize_branches": %d,
      "per_seed": [%s] }|}
              r.cr_class r.cr_served r.cr_rejected r.cr_escapes
              r.cr_handler_branches r.cr_sanitize_branches
              (String.concat ", "
                 (List.map
                    (fun (seed, h, s) ->
                      Printf.sprintf
                        {|{ "seed": "%#Lx", "handler_branches": %d, "sanitize_branches": %d }|}
                        seed h s)
                    r.cr_per_seed)))
          class_results))
    (String.concat ",\n"
       (List.map
          (fun (name, v) ->
            Printf.sprintf {|    { "metric": "%s", "value": %.9g }|} name v)
          clean_metrics))
    n_violations;
  close_out oc;
  Printf.printf
    "hostile suite: %d seeds x %d descriptors, %d served (ok=%d err=%d \
     poll=%d), malformed=%d sanitized=%d escapes=%d\n"
    (List.length seeds) descriptors_per_seed totals.served totals.ok totals.err
    totals.poll_replies totals.malformed totals.sanitize_rejected totals.escapes;
  Printf.printf "hostile suite: victim solo=%.1fus attacked=%.1fus ratio=%.3f\n"
    solo_us attacked_us ratio;
  Printf.printf
    "hostile suite: grammar fuzz decode=%d sanitize=%d branches (blind \
     decode=%d sanitize=%d)\n"
    grammar_decode grammar_sanitize blind_decode blind_sanitize;
  List.iter
    (fun r ->
      Printf.printf
        "hostile suite: class %-6s served=%d rejected=%d escapes=%d \
         handler=%d sanitize=%d branches\n"
        r.cr_class r.cr_served r.cr_rejected r.cr_escapes
        r.cr_handler_branches r.cr_sanitize_branches)
    class_results;
  Printf.printf "hostile suite: clean control bit-identical (%s)\n"
    (String.concat ", "
       (List.map (fun (n, v) -> Printf.sprintf "%s=%.4g" n v) clean_metrics));
  match !violations with
  | [] -> print_endline "hostile suite: OK"
  | vs ->
      List.iter
        (fun v -> print_endline ("hostile suite: VIOLATION: " ^ v))
        (List.rev vs);
      exit 1
