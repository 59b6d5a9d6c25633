(** The CVD backend (§3.1, §5.1).

    Lives in the driver VM.  For every guest it runs a worker thread
    that takes file operations off the channel, {e marks} itself as
    acting for the remote guest process (so the driver's memory
    operations redirect to the hypervisor — §5.2), invokes the real
    device driver's file-operation handlers through the driver VM's
    own VFS, and sends the result back.  Asynchronous driver
    notifications (fasync) are forwarded as channel notifications. *)

open Oskit

type file_state = {
  file : Defs.file; (* the real device file, shared by all workers *)
  mutable vmas : Defs.vma list; (* backend mirrors of guest mmaps *)
}

type guest_link = {
  guest_vm : Hypervisor.Vm.t;
  pool : Chan_pool.t;
  files : file_state Memory.Int_tbl.t; (* vfd -> state, shared by workers *)
  mutable next_vfd : int;
  mutable ops_served : int;
  (* -- containment (§4, §7.1: the backend treats every guest as
        potentially hostile).  Counters are per guest so one attacker
        cannot pollute a sibling's record. -- *)
  mutable malformed : int; (* undecodable descriptors *)
  mutable rejected : int; (* sanitization refusals *)
  mutable grant_faults : int; (* hypervisor grant-validation rejections *)
  mutable quota_breaches : int; (* vfd-cap and grant-quota refusals *)
  mutable throttle_events : int; (* CPU-budget enforcement pauses *)
  mutable cpu_used_us : float; (* backend CPU charged this window *)
  mutable cpu_window_start : float;
  mutable max_dispatch_len : int; (* largest read/write len past sanitize *)
  mutable score : int; (* weighted misbehavior score *)
  mutable quarantined : bool;
  mutable grant_quota_seen : int; (* Grant_table.quota_breaches last read *)
}

type t = {
  kernel : Kernel.t; (* the driver VM's kernel *)
  hyp : Hypervisor.Hyp.t;
  config : Config.t;
  policy : Policy.t; (* sharing policy (input -> foreground guest only) *)
  mutable exports : string list; (* device paths guests may open *)
  mutable links : guest_link list;
  mutable killed : bool; (* driver VM crashed: serve nothing more *)
  limits : Wire_spec.limits;
      (* the sanitization bounds, packed once from config; live serve
         and checkpoint restore vet requests against the same record *)
}

let create ~kernel ~hyp ~config ~policy =
  {
    kernel;
    hyp;
    config;
    policy;
    exports = [];
    links = [];
    killed = false;
    limits =
      {
        Wire_spec.max_transfer_bytes = config.Config.max_transfer_bytes;
        poll_timeout_cap_us = config.Config.poll_timeout_cap_us;
        grant_capacity = Hypervisor.Grant_table.capacity;
      };
  }

let export t path =
  if not (List.mem path t.exports) then t.exports <- path :: t.exports

let exports t = t.exports
let is_killed t = t.killed

(** The driver VM crashed: stop serving.  With [poison] (default) every
    channel of every link is killed, waking blocked frontends and
    workers so they observe the death.  [poison:false] models a silent
    death: the channels stay up but requests vanish unanswered (workers
    drop them and exit), so only RPC deadlines or the frontend watchdog
    can detect it.  Safe from engine callbacks ({!Channel.kill} is). *)
let kill ?(poison = true) t =
  if not t.killed then begin
    t.killed <- true;
    if poison then
      List.iter
        (fun link -> Chan_pool.iter_channels link.pool Channel.kill)
        t.links
  end

let link_stats link = (link.ops_served, Chan_pool.stats link.pool)
let has_link t link = List.memq link t.links

(* Fault-site keys (armed on [Config.injector]). *)
let site_wedge = "back.wedge"
let site_crash = "cvd.crash"

(* ---- hostile-guest containment ---- *)

(* Misbehavior weights: deliberate protocol violations (garbage bytes,
   undeclared memory operations) weigh more than bound violations a
   buggy-but-honest guest could also hit (oversized transfers, quota
   exhaustion). *)
let score_malformed = 5
let score_rejected = 3
let score_grant_fault = 5
let score_quota_breach = 2

let m_incr ?by t name =
  if Obs.Trace.enabled t.config.Config.tracer then
    Obs.Metrics.incr ?by (Obs.Trace.metrics t.config.Config.tracer) name

let audit t = Hypervisor.Hyp.audit t.hyp

let note_sanitize_rejection t =
  let a = audit t in
  a.Hypervisor.Audit.sanitize_rejections <-
    a.Hypervisor.Audit.sanitize_rejections + 1

(** Quarantine a misbehaving guest: §4.1's fault containment turned
    around — the backend protects itself and the sibling guests from a
    hostile frontend.  Everything the guest holds on the backend side
    is torn down: open files force-released (subscribers dropped, open
    counts restored so exclusive devices do not stay EBUSY), its
    outstanding grants revoked, its cross-VM mappings destroyed, its
    channels poisoned.  Sibling links share none of that state and
    keep full service. *)
let quarantine t link worker =
  if not link.quarantined then begin
    link.quarantined <- true;
    let a = audit t in
    a.Hypervisor.Audit.quarantines <- a.Hypervisor.Audit.quarantines + 1;
    m_incr t "containment.quarantines";
    Memory.Int_tbl.iter
      (fun _ fs ->
        if not fs.file.Defs.closed then begin
          (try fs.file.Defs.dev.Defs.ops.Defs.fop_release worker fs.file
           with _ -> () (* a raising driver must not block teardown *));
          fs.file.Defs.closed <- true;
          fs.file.Defs.dev.Defs.open_count <-
            fs.file.Defs.dev.Defs.open_count - 1;
          fs.file.Defs.fasync_subscribers <- []
        end)
      link.files;
    Memory.Int_tbl.reset link.files;
    (match Hypervisor.Hyp.grant_table_of t.hyp link.guest_vm with
    | Some table -> ignore (Hypervisor.Grant_table.revoke_all table)
    | None -> ());
    ignore (Hypervisor.Hyp.teardown_vm_mappings t.hyp ~target:link.guest_vm);
    Chan_pool.iter_channels link.pool Channel.kill
  end

(* Each containment event adds weighted points; past the configured
   threshold the guest is cut off.  0 disables quarantine (counters
   still accumulate for observability). *)
let note_misbehavior t link worker points =
  link.score <- link.score + points;
  let threshold = t.config.Config.quarantine_threshold in
  if threshold > 0 && (not link.quarantined) && link.score >= threshold then
    quarantine t link worker

(* CPU-budget rate limiting: a guest that burned more backend CPU than
   [cpu_budget_us] inside one accounting window has its next operation
   delayed to the window boundary, so a guest spinning expensive
   operations cannot starve siblings' ring service.  Throttling is
   rate limiting, not misbehavior — it does not feed the score. *)
let throttle t link =
  let budget = t.config.Config.cpu_budget_us in
  if budget > 0. then begin
    let engine = Kernel.engine t.kernel in
    let window = t.config.Config.cpu_budget_window_us in
    let now = Sim.Engine.now engine in
    if now -. link.cpu_window_start >= window then begin
      link.cpu_window_start <- now;
      link.cpu_used_us <- 0.
    end
    else if link.cpu_used_us >= budget then begin
      link.throttle_events <- link.throttle_events + 1;
      m_incr t "containment.throttles";
      Sim.Engine.wait (link.cpu_window_start +. window -. now);
      link.cpu_window_start <- Sim.Engine.now engine;
      link.cpu_used_us <- 0.
    end
  end

let find_file link vfd =
  match Memory.Int_tbl.find_opt link.files vfd with
  | Some fs -> fs
  | None -> Errno.fail Errno.EINVAL "bad virtual descriptor"

(* Execute one decoded request against the real driver.  The worker is
   already marked as remote for the issuing guest process.

   Operations dispatch on the file stored at open time, not through a
   worker's descriptor table: any of the guest's pool workers may
   carry any operation, so descriptors (which are per-task) cannot be
   used across workers. *)
let wrap f = try Proto.Rok (f ()) with Errno.Unix_error (e, _) -> Proto.Rerr (Errno.to_code e)

(* The analyzer-generated per-ioctl argument sanitizer (the §5.1
   facts → §4 runtime-checking loop): evaluated before the handler
   runs, reading the guest argument struct straight through the
   hypervisor — uncharged and grant-free, so the handler still
   performs (and is billed for) the real grant-checked copies and
   clean workloads keep bit-identical simulated times.  Returns [Some
   response] when the guard rejects; a rejection rides the same
   misbehavior-scoring path as transport-level sanitization. *)
let guard_ioctl t link worker fs ~cmd ~arg =
  if not t.config.Config.ioctl_guards then None
  else
    match worker.Defs.remote with
    | None -> None (* local caller: its memory is its own *)
    | Some rc -> (
        let dev_class = fs.file.Defs.dev.Defs.dev_class in
        let read ~addr ~len =
          Hypervisor.Vm.read_gva rc.Defs.rc_target ~pt:rc.Defs.rc_pt ~gva:addr ~len
        in
        match Ioctl_guard.check ~dev_class ~cmd ~arg ~limits:t.limits ~read with
        | Ioctl_guard.Pass -> None
        | Ioctl_guard.Reject { handler; violated = _ } ->
            link.rejected <- link.rejected + 1;
            note_sanitize_rejection t;
            m_incr t (Printf.sprintf "sanitize.%s.%s" dev_class handler);
            note_misbehavior t link worker score_rejected;
            Some (Proto.Rerr (Errno.to_code Errno.EINVAL)))

let rec dispatch t link worker (req : Proto.request) : Proto.response =
  let kernel = t.kernel in
  match req with
  | Proto.Rnoop -> Proto.Rok 0
  | Proto.Rbatch reqs ->
      (* io_uring-style multi-op descriptor: execute the sub-ops
         sequentially, each inside its own trace span (cat "subop" —
         not "stage", so the stage-tiling reconciliation over the op
         span is untouched), and return one sub-response per sub-op in
         submission order.  A failing sub-op does not abort the batch:
         its reply slot carries the errno, like an io_uring CQE.
         [Proto.validate] has already vetted every sub-op through the
         same gate as a singleton. *)
      let tracer = t.config.Config.tracer in
      let trace =
        match worker.Defs.remote with Some rc -> rc.Defs.rc_trace | None -> 0
      in
      let serve_sub i sub =
        let sp =
          Obs.Trace.span_begin tracer ~trace ~lane:Obs.Trace.Backend
            ~cat:"subop"
            ~name:
              (if Obs.Trace.recording tracer ~trace then
                 "subop:" ^ Proto.request_name sub
               else "")
            ()
        in
        Obs.Trace.span_arg sp "index" (float_of_int i);
        let resp =
          match sub with
          | Proto.Rbatch _ ->
              (* unreachable past validate; never recurse *)
              Proto.Rerr (Errno.to_code Errno.EINVAL)
          | _ -> (
              try dispatch t link worker sub
              with Errno.Unix_error (e, _) -> Proto.Rerr (Errno.to_code e))
        in
        Obs.Trace.span_end tracer sp;
        resp
      in
      Proto.Rbatch_reply (List.mapi serve_sub reqs)
  | Proto.Ropen { path } ->
      if Memory.Int_tbl.length link.files >= t.config.Config.max_open_vfds then begin
        (* per-guest descriptor cap: an open loop exhausts the guest's
           own allowance, not the backend's tables *)
        link.quota_breaches <- link.quota_breaches + 1;
        m_incr t "containment.quota_breaches";
        note_misbehavior t link worker score_quota_breach;
        Proto.Rerr (Errno.to_code Errno.EBUSY)
      end
      else if not (List.mem path t.exports) then
        Proto.Rerr (Errno.to_code Errno.ENODEV)
      else
        wrap (fun () ->
            Kernel.charge_syscall kernel;
            match Devfs.lookup (Kernel.devfs kernel) path with
            | None -> Errno.fail Errno.ENODEV ("no such device: " ^ path)
            | Some dev ->
                if dev.Defs.exclusive && dev.Defs.open_count > 0 then
                  Errno.fail Errno.EBUSY (path ^ " is single-open");
                (* backend file ids live in their own space, derived
                   from the guest id and the vfd *)
                let file_id =
                  (Hypervisor.Vm.id link.guest_vm * 100_000) + link.next_vfd
                in
                let file =
                  {
                    Defs.file_id;
                    dev;
                    opener = worker;
                    nonblock = false;
                    fasync_subscribers = [];
                    closed = false;
                  }
                in
                dev.Defs.ops.Defs.fop_open worker file;
                dev.Defs.open_count <- dev.Defs.open_count + 1;
                let vfd = link.next_vfd in
                link.next_vfd <- vfd + 1;
                Memory.Int_tbl.replace link.files vfd { file; vmas = [] };
                vfd)
  | Proto.Rrelease { vfd } ->
      let fs = find_file link vfd in
      Memory.Int_tbl.remove link.files vfd;
      wrap (fun () ->
          Kernel.charge_syscall kernel;
          (* The driver's release handler may fail; the backend's own
             bookkeeping must not depend on it.  Without the protect, a
             raising fop_release leaked the file's fasync subscription
             (and the device open count): a guest that armed SIGIO and
             then released kept a dead worker subscribed to driver
             notifications forever. *)
          Fun.protect
            ~finally:(fun () ->
              fs.file.Defs.closed <- true;
              fs.file.Defs.dev.Defs.open_count <-
                fs.file.Defs.dev.Defs.open_count - 1;
              fs.file.Defs.fasync_subscribers <- [])
            (fun () ->
              fs.file.Defs.dev.Defs.ops.Defs.fop_release worker fs.file);
          0)
  | Proto.Rread { vfd; buf; len } ->
      let fs = find_file link vfd in
      link.max_dispatch_len <- Int.max link.max_dispatch_len len;
      wrap (fun () ->
          Kernel.charge_syscall kernel;
          fs.file.Defs.dev.Defs.ops.Defs.fop_read worker fs.file ~buf ~len)
  | Proto.Rwrite { vfd; buf; len } ->
      let fs = find_file link vfd in
      link.max_dispatch_len <- Int.max link.max_dispatch_len len;
      wrap (fun () ->
          Kernel.charge_syscall kernel;
          fs.file.Defs.dev.Defs.ops.Defs.fop_write worker fs.file ~buf ~len)
  | Proto.Rioctl { vfd; cmd; arg } -> (
      let fs = find_file link vfd in
      match guard_ioctl t link worker fs ~cmd ~arg with
      | Some rejection -> rejection
      | None ->
          wrap (fun () ->
              Kernel.charge_syscall kernel;
              fs.file.Defs.dev.Defs.ops.Defs.fop_ioctl worker fs.file ~cmd ~arg))
  | Proto.Rmmap { vfd; gva; len; pgoff } ->
      let fs = find_file link vfd in
      (* Mirror the guest VMA; addresses stay in the guest's virtual
         space, which is what the driver and hypervisor need (§5.1's
         FreeBSD change passes exactly this range along). *)
      let vma =
        { Defs.vma_start = gva; vma_len = len; vma_file = fs.file; vma_pgoff = pgoff }
      in
      (try
         fs.file.Defs.dev.Defs.ops.Defs.fop_mmap worker fs.file vma;
         fs.vmas <- vma :: fs.vmas;
         Proto.Rok 0
       with Errno.Unix_error (e, _) -> Proto.Rerr (Errno.to_code e))
  | Proto.Rfault { vfd; gva } ->
      let fs = find_file link vfd in
      (match
         List.find_opt
           (fun v -> gva >= v.Defs.vma_start && gva < v.Defs.vma_start + v.Defs.vma_len)
           fs.vmas
       with
      | None -> Proto.Rerr (Errno.to_code Errno.EFAULT)
      | Some vma -> (
          try
            fs.file.Defs.dev.Defs.ops.Defs.fop_fault worker fs.file vma
              ~gva:(Memory.Addr.align_down gva);
            Proto.Rok 0
          with Errno.Unix_error (e, _) -> Proto.Rerr (Errno.to_code e)))
  | Proto.Rmunmap { vfd; gva; len } ->
      let fs = find_file link vfd in
      (* Tear down whatever the hypervisor mapped; pages never faulted
         in simply are not registered. *)
      List.iter
        (fun (addr, _) ->
          try Uaccess.remove_pfn worker ~gva:addr
          with Errno.Unix_error (Errno.EFAULT, _) -> ())
        (Memory.Addr.page_chunks ~addr:gva ~len);
      fs.vmas <-
        List.filter (fun v -> not (v.Defs.vma_start = gva && v.Defs.vma_len = len)) fs.vmas;
      Proto.Rok 0
  | Proto.Rpoll { vfd; want_in; want_out; timeout_us } ->
      let fs = find_file link vfd in
      (try
         Kernel.charge_syscall kernel;
         let r =
           Vfs.poll_file kernel worker fs.file ~want_in ~want_out ~timeout:timeout_us
         in
         Proto.Rpoll_reply { pollin = r.Defs.pollin; pollout = r.Defs.pollout }
       with Errno.Unix_error (e, _) -> Proto.Rerr (Errno.to_code e))
  | Proto.Rfasync { vfd; on } ->
      let fs = find_file link vfd in
      wrap (fun () ->
          Kernel.charge_syscall kernel;
          fs.file.Defs.dev.Defs.ops.Defs.fop_fasync worker fs.file ~on;
          (if on then begin
             if not (List.memq worker fs.file.Defs.fasync_subscribers) then
               fs.file.Defs.fasync_subscribers <-
                 worker :: fs.file.Defs.fasync_subscribers
           end
           else
             fs.file.Defs.fasync_subscribers <-
               List.filter (fun t -> t != worker) fs.file.Defs.fasync_subscribers);
          0)

(* Grant-quota refusals happen on the frontend (declare) side, invisible
   to the backend's request path; pick up the counter delta so they
   feed the same per-guest score. *)
let absorb_grant_quota_breaches t link worker =
  match Hypervisor.Hyp.grant_table_of t.hyp link.guest_vm with
  | None -> ()
  | Some table ->
      let b = Hypervisor.Grant_table.quota_breaches table in
      if b > link.grant_quota_seen then begin
        let d = b - link.grant_quota_seen in
        link.grant_quota_seen <- b;
        link.quota_breaches <- link.quota_breaches + d;
        m_incr ~by:d t "containment.quota_breaches";
        note_misbehavior t link worker (d * score_quota_breach)
      end

(* Serve one raw descriptor: decode, sanitize, dispatch.  Containment
   contract: every failure mode of a hostile descriptor — garbage
   bytes, out-of-bound fields, undeclared memory operations, a driver
   handler that raises — becomes an error response; no exception
   escapes to the worker loop. *)
let serve_one t link worker (bytes : bytes) : Proto.response =
  absorb_grant_quota_breaches t link worker;
  if link.quarantined then Proto.Rerr (Errno.to_code Errno.EPERM)
  else
    match Proto.decode_request bytes with
    | exception Proto.Malformed _ ->
        link.malformed <- link.malformed + 1;
        note_sanitize_rejection t;
        m_incr t "containment.malformed";
        note_misbehavior t link worker score_malformed;
        Proto.Rerr (Errno.to_code Errno.EINVAL)
    | (_, grant_ref, pid) as decoded -> (
        let sanitized =
          if t.config.Config.sanitize_requests then
            Proto.validate_limits ~limits:t.limits decoded
          else
            let r, _, _ = decoded in
            Ok r
        in
        match sanitized with
        | Error _ ->
            link.rejected <- link.rejected + 1;
            note_sanitize_rejection t;
            m_incr t "containment.rejected";
            note_misbehavior t link worker score_rejected;
            Proto.Rerr (Errno.to_code Errno.EINVAL)
        | Ok req -> (
            link.ops_served <- link.ops_served + 1;
            match req with
            | Proto.Rnoop ->
                Proto.Rok 0 (* immediate return, no marking (§6.1.1) *)
            | _ -> (
                match Hypervisor.Hyp.find_process_pt t.hyp link.guest_vm ~pid with
                | None -> Proto.Rerr (Errno.to_code Errno.EFAULT)
                | Some pt ->
                    throttle t link;
                    let rc =
                      {
                        Defs.rc_hyp = t.hyp;
                        rc_target = link.guest_vm;
                        rc_pt = pt;
                        rc_grant = grant_ref;
                        rc_charge =
                          (fun n ->
                            let us = n *. t.config.Config.hypercall_us in
                            link.cpu_used_us <- link.cpu_used_us +. us;
                            Kernel.charge t.kernel us);
                        rc_trace = Proto.get_trace bytes;
                      }
                    in
                    let vm_id = Hypervisor.Vm.id link.guest_vm in
                    let rej_before =
                      Hypervisor.Audit.guest_rejections (audit t) ~vm_id
                    in
                    link.cpu_used_us <-
                      link.cpu_used_us +. Kernel.syscall_cost t.kernel;
                    let resp =
                      try
                        Task.with_remote worker rc (fun () ->
                            dispatch t link worker req)
                      with
                      | Errno.Unix_error (e, _) -> Proto.Rerr (Errno.to_code e)
                      | _ ->
                          (* an unexpected driver/backend exception is
                             contained as EIO, never propagated into
                             the worker loop *)
                          m_incr t "containment.dispatch_exn";
                          Proto.Rerr (Errno.to_code Errno.EIO)
                    in
                    let rej_after =
                      Hypervisor.Audit.guest_rejections (audit t) ~vm_id
                    in
                    if rej_after > rej_before then begin
                      let d = rej_after - rej_before in
                      link.grant_faults <- link.grant_faults + d;
                      m_incr ~by:d t "containment.grant_faults";
                      note_misbehavior t link worker (d * score_grant_fault)
                    end;
                    if link.quarantined then
                      Proto.Rerr (Errno.to_code Errno.EPERM)
                    else resp)))

(** Connect a guest: create its channel pool and workers and start
    serving.  Returns the link; the frontend uses [link.pool]. *)
let connect t ~guest_vm =
  let engine = Kernel.engine t.kernel in
  let n = max 1 t.config.Config.channels_per_guest in
  let channels =
    Array.init n (fun i ->
        (* deterministic per machine: guest VM ids are per-hypervisor,
           so ring counter-series names never depend on how many
           machines (fleet shards) this process built before *)
        Channel.create
          ~uid:((Hypervisor.Vm.id guest_vm * 1000) + i + 1)
          engine ~config:t.config ~phys:(Hypervisor.Hyp.phys t.hyp) ~guest_vm
          ~driver_vm:(Kernel.vm t.kernel))
  in
  let pool = Chan_pool.create channels ~cap:t.config.Config.max_queued_ops in
  let link =
    {
      guest_vm;
      pool;
      files = Memory.Int_tbl.create 8;
      next_vfd = 1;
      ops_served = 0;
      malformed = 0;
      rejected = 0;
      grant_faults = 0;
      quota_breaches = 0;
      throttle_events = 0;
      cpu_used_us = 0.;
      cpu_window_start = 0.;
      max_dispatch_len = 0;
      score = 0;
      quarantined = false;
      grant_quota_seen = 0;
    }
  in
  t.links <- link :: t.links;
  Array.iter
    (fun channel ->
      let worker =
        Kernel.spawn_task t.kernel
          ~name:(Printf.sprintf "cvd-worker-%s" (Hypervisor.Vm.name guest_vm))
      in
      (* forward driver fasync events to the guest, whichever worker
         happened to register the subscription — but only while this
         guest is in the foreground (input policy, §5.1) *)
      Task.on_sigio worker (fun () ->
          if Policy.input_target t.policy (Hypervisor.Vm.id guest_vm) then
            Channel.notify (Chan_pool.notify_channel pool));
      Sim.Engine.spawn engine ~name:"cvd-backend" (fun () ->
          let fires key =
            match t.config.Config.injector with
            | None -> false
            | Some inj -> Sim.Fault_inject.fires inj ~key
          in
          let rec loop () =
            match Channel.next_request channel with
            | None -> () (* channel dead: worker exits *)
            | Some _ when t.killed -> ()
            | Some (slot, bytes) ->
                (* [serve_one] turns every failure into an error
                   response, so the span needs no error arm *)
                let sp =
                  Obs.Trace.span_begin t.config.Config.tracer
                    ~trace:(Proto.get_trace bytes) ~lane:Obs.Trace.Backend
                    ~cat:"stage" ~name:"back:dispatch" ()
                in
                let resp = serve_one t link worker bytes in
                Obs.Trace.span_end t.config.Config.tracer sp;
                (* "back.wedge": the worker hangs forever between
                   executing the operation and answering — a stuck
                   driver thread.  Only an RPC deadline recovers the
                   frontend. *)
                if fires site_wedge then Sim.Engine.suspend (fun _ -> ());
                (* "cvd.crash": the driver VM dies right here, mid-RPC
                   — the operation ran but its response is never sent.
                   on_fire hooks (armed by Machine) perform the actual
                   kill before we notice [killed] below. *)
                if fires site_crash then ignore resp
                else if not t.killed then begin
                  (* A respond on a slot no longer in service is a
                     counted protocol violation (only a guest rewriting
                     the control page under the backend's feet can
                     cause it): score the guest and drop the response
                     instead of letting the EIO kill the worker. *)
                  try Channel.respond channel ~slot resp
                  with Errno.Unix_error (Errno.EIO, _) ->
                    note_misbehavior t link worker score_rejected
                end;
                loop ()
          in
          loop ()))
    channels;
  link

(* ------------------------------------------------------------------ *)
(* Planned handoff: checkpoint / restore (hot upgrade, migration)      *)
(* ------------------------------------------------------------------ *)

let grants_of t guest_vm =
  match Hypervisor.Hyp.grant_table_of t.hyp guest_vm with
  | Some table -> Hypervisor.Grant_table.snapshot table
  | None -> []

(** Checkpoint everything the successor driver VM needs about this
    guest's session: open files (ascending vfd) with their flags and
    mirrored VMA layout, the outstanding grant groups, and the full
    containment record — a hostile guest must not launder its
    misbehavior history through an upgrade. *)
let checkpoint_link t link : Snapshot.link_snap =
  let files =
    Memory.Int_tbl.fold (fun vfd fs acc -> (vfd, fs) :: acc) link.files []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    Snapshot.ls_guest_vm_id = Hypervisor.Vm.id link.guest_vm;
    ls_next_vfd = link.next_vfd;
    ls_ops_served = link.ops_served;
    ls_malformed = link.malformed;
    ls_rejected = link.rejected;
    ls_grant_faults = link.grant_faults;
    ls_quota_breaches = link.quota_breaches;
    ls_score = link.score;
    ls_quarantined = link.quarantined;
    ls_files =
      List.map
        (fun (vfd, fs) ->
          {
            Snapshot.fr_vfd = vfd;
            fr_path = fs.file.Defs.dev.Defs.dev_path;
            fr_fasync = fs.file.Defs.fasync_subscribers <> [];
            fr_nonblock = fs.file.Defs.nonblock;
            (* [vmas] is newest-first (live prepends); store oldest
               first so restore rebuilds the same order *)
            fr_vmas =
              List.rev_map
                (fun v -> (v.Defs.vma_start, v.Defs.vma_len, v.Defs.vma_pgoff))
                fs.vmas;
          })
        files;
    ls_grants = grants_of t link.guest_vm;
  }

(** Quietly close every backend file the link holds — the departing
    driver VM's side of a handoff.  Device open counts drop (so the
    successor can reopen exclusive devices) and SIGIO subscriptions are
    dropped, but — unlike {!quarantine} — grants and hypervisor
    mappings are left intact: they are guest-keyed and the successor
    re-validates them in place. *)
let release_link_files t link =
  if Memory.Int_tbl.length link.files > 0 then begin
    let reaper = Kernel.spawn_task t.kernel ~name:"cvd-reaper" in
    Memory.Int_tbl.iter
      (fun _ fs ->
        if not fs.file.Defs.closed then begin
          (try fs.file.Defs.dev.Defs.ops.Defs.fop_release reaper fs.file
           with _ -> () (* a raising driver must not block the handoff *));
          fs.file.Defs.closed <- true;
          fs.file.Defs.dev.Defs.open_count <-
            fs.file.Defs.dev.Defs.open_count - 1;
          fs.file.Defs.fasync_subscribers <- []
        end)
      link.files;
    Memory.Int_tbl.reset link.files
  end

let detach_link t link = t.links <- List.filter (fun l -> l != link) t.links

type restore_stats = {
  rs_files : int; (* files re-opened at their snapshotted vfd *)
  rs_dropped : int; (* snapshot entries refused by re-validation *)
  rs_vmas : int; (* VMA mirrors rebuilt *)
  rs_fasync : int; (* SIGIO subscriptions re-armed *)
}

let fault_check t key =
  match t.config.Config.injector with
  | None -> ()
  | Some inj -> Sim.Fault_inject.check inj ~key

(* Restore validation runs the {e same} sanitization pass as a live
   request: a snapshotted path or VMA range the backend would refuse
   from the wire is refused from the checkpoint too. *)
let sanitize t decoded = Proto.validate_limits ~limits:t.limits decoded

(** Restore a checkpointed session onto {e this} (successor) backend:
    fresh channel pool and workers via {!connect}, the containment
    record carried over, then every snapshotted file re-validated —
    through the same checks a live [Ropen] faces — and re-opened at
    its preserved vfd.  VMA mirrors are rebuilt without re-running
    [fop_mmap]: the hypervisor's cross-VM mappings are keyed by the
    guest and survived the swap in place.  Entries that fail
    re-validation are dropped (counted), never trusted.

    [fail_site] is a per-file abort-style fault site
    ({!Sim.Fault_inject.check}); when it fires the partial restore is
    torn down — files quietly closed, channels killed, link detached —
    and {!Sim.Fault_inject.Injected} re-raised for the caller's
    rollback.  A quarantined snapshot restores its record only: the
    guest stays cut off, with no files and no service. *)
let restore_link t ~(snap : Snapshot.link_snap) ~guest_vm ?fail_site () =
  let link = connect t ~guest_vm in
  link.next_vfd <- max link.next_vfd snap.Snapshot.ls_next_vfd;
  link.ops_served <- snap.Snapshot.ls_ops_served;
  link.malformed <- snap.Snapshot.ls_malformed;
  link.rejected <- snap.Snapshot.ls_rejected;
  link.grant_faults <- snap.Snapshot.ls_grant_faults;
  link.quota_breaches <- snap.Snapshot.ls_quota_breaches;
  link.score <- snap.Snapshot.ls_score;
  link.quarantined <- snap.Snapshot.ls_quarantined;
  (* the grant table survived the swap, and so did its breach counter:
     re-baseline so old breaches are not double-counted *)
  (match Hypervisor.Hyp.grant_table_of t.hyp guest_vm with
  | Some table ->
      link.grant_quota_seen <- Hypervisor.Grant_table.quota_breaches table
  | None -> ());
  let stats = ref { rs_files = 0; rs_dropped = 0; rs_vmas = 0; rs_fasync = 0 } in
  if not link.quarantined then begin
    let restorer = Kernel.spawn_task t.kernel ~name:"cvd-restore" in
    Task.on_sigio restorer (fun () ->
        if Policy.input_target t.policy (Hypervisor.Vm.id guest_vm) then
          Channel.notify (Chan_pool.notify_channel link.pool));
    let restore_file (fr : Snapshot.file_rec) =
      let vfd = fr.Snapshot.fr_vfd and path = fr.Snapshot.fr_path in
      let admissible =
        (match sanitize t (Proto.Ropen { path }, 0, 0) with
        | Ok _ -> true
        | Error _ -> false)
        && vfd >= 1
        && vfd <= Proto.max_vfd
        && (not (Memory.Int_tbl.mem link.files vfd))
        && Memory.Int_tbl.length link.files < t.config.Config.max_open_vfds
        && List.mem path t.exports
      in
      if not admissible then false
      else
        match Devfs.lookup (Kernel.devfs t.kernel) path with
        | None -> false
        | Some dev ->
            if dev.Defs.exclusive && dev.Defs.open_count > 0 then false
            else begin
              let file_id = (Hypervisor.Vm.id guest_vm * 100_000) + vfd in
              let file =
                {
                  Defs.file_id;
                  dev;
                  opener = restorer;
                  nonblock = fr.Snapshot.fr_nonblock;
                  fasync_subscribers = [];
                  closed = false;
                }
              in
              dev.Defs.ops.Defs.fop_open restorer file;
              dev.Defs.open_count <- dev.Defs.open_count + 1;
              let vmas =
                List.filter_map
                  (fun (gva, len, pgoff) ->
                    match
                      sanitize t (Proto.Rmmap { vfd; gva; len; pgoff }, 0, 0)
                    with
                    | Ok _ ->
                        Some
                          {
                            Defs.vma_start = gva;
                            vma_len = len;
                            vma_file = file;
                            vma_pgoff = pgoff;
                          }
                    | Error _ -> None)
                  fr.Snapshot.fr_vmas
              in
              stats :=
                { !stats with rs_vmas = !stats.rs_vmas + List.length vmas };
              (* live mirror is newest-first *)
              Memory.Int_tbl.replace link.files vfd { file; vmas = List.rev vmas };
              if fr.Snapshot.fr_fasync then begin
                (try dev.Defs.ops.Defs.fop_fasync restorer file ~on:true
                 with _ -> ());
                file.Defs.fasync_subscribers <- [ restorer ];
                stats := { !stats with rs_fasync = !stats.rs_fasync + 1 }
              end;
              true
            end
    in
    try
      List.iter
        (fun fr ->
          (match fail_site with Some key -> fault_check t key | None -> ());
          if restore_file fr then
            stats := { !stats with rs_files = !stats.rs_files + 1 }
          else begin
            stats := { !stats with rs_dropped = !stats.rs_dropped + 1 };
            note_sanitize_rejection t
          end)
        snap.Snapshot.ls_files
    with Sim.Fault_inject.Injected _ as e ->
      (* crash mid-restore: unwind the partial session so nothing of
         it survives on this side — the caller decides where the whole
         session lands *)
      release_link_files t link;
      Chan_pool.iter_channels link.pool Channel.kill;
      detach_link t link;
      raise e
  end;
  (link, !stats)
