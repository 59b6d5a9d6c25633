(** The CVD frontend (§3.1, §5.1).

    Lives in the guest kernel.  For every exported device it creates a
    {e virtual device file} in the guest's /dev whose file-operation
    handlers (i) identify and declare the operation's legitimate memory
    operations in the grant table (§4.1) — from the syscall arguments
    for read/write/mmap, from the analyzer's entries or command-number
    macros for ioctl — and (ii) forward the operation over the channel
    pool to the backend. *)

open Oskit

type session = Healthy | Faulted

type fault_stats = {
  sessions_faulted : int;
  grants_revoked : int;
  mappings_torn : int;
  heartbeat_misses : int;
  last_faulted_at : float;
  last_teardown_us : float;
}

type t = {
  kernel : Kernel.t; (* the guest's kernel *)
  hyp : Hypervisor.Hyp.t;
  guest_vm : Hypervisor.Vm.t;
  mutable pool : Chan_pool.t; (* replaced on reattach after a reboot *)
  grant_table : Hypervisor.Grant_table.t;
  config : Config.t;
  (* analyzer output per device class, keyed by devfs path *)
  entries : (string, Analyzer.Extract.t) Hashtbl.t;
  vfds : int Memory.Int_tbl.t; (* guest file_id -> backend vfd *)
  (* guest files whose backend session died under them: their vfds are
     meaningless, operations fail ENODEV until the file is reopened.
     The value records why the file went stale, so callers can tell a
     retryable staleness (driver VM rebooted: reopen succeeds) from a
     hard one (session still down). *)
  stale_vfds : string Memory.Int_tbl.t;
  mutable fasync_files : Defs.file list; (* forward notifications here *)
  mutable session : session;
  (* Planned-handoff gate (hot upgrade / migration): while [paused],
     forwarded operations park on [resume_wq] instead of touching the
     transport; {!resume} wakes them onto the successor pool.  Unlike
     a fault, pausing is invisible to the caller — only added latency. *)
  mutable paused : bool;
  resume_wq : Wait_queue.t;
  mutable ops_parked : int; (* stragglers replayed across a handoff *)
  mutable ops_forwarded : int;
  mutable jit_evaluations : int;
  mutable hb_stop : bool; (* watchdog shutdown flag *)
  mutable hb_suspended : bool; (* quiesce: pings would time out, skip them *)
  mutable fstats : fault_stats;
}

let stats t = (t.ops_forwarded, t.jit_evaluations, Chan_pool.stats t.pool)
let session t = t.session
let fault_stats t = t.fstats

(* The notification dispatcher: deliver backend messages as SIGIO on
   the guest's subscribed virtual files.  One dispatcher per attached
   pool; it exits when its channel dies (driver-VM crash) and a fresh
   one is spawned on reattach. *)
let spawn_notify_dispatcher t pool =
  Sim.Engine.spawn (Kernel.engine t.kernel) ~name:"cvd-frontend-notify" (fun () ->
      let chan = Chan_pool.notify_channel pool in
      let rec loop () =
        match Channel.next_notification chan with
        | None -> () (* channel dead: dispatcher exits *)
        | Some _ ->
            List.iter Vfs.kill_fasync t.fasync_files;
            loop ()
      in
      loop ())

(** Fault the session: the driver VM is dead (or presumed so).  All
    open virtual files turn stale (operations fail ENODEV), every
    outstanding grant is revoked and every hypervisor-installed
    cross-VM mapping into this guest torn down — nothing the dead
    driver VM held may remain usable (§4.1: driver-VM crashes must not
    corrupt the guest).  Idempotent; process context. *)
let fault_session t ~reason =
  match t.session with
  | Faulted -> ()
  | Healthy ->
      t.session <- Faulted;
      (* a fault during a planned handoff aborts the pause: parked
         operations must wake and fail, not hang forever *)
      t.paused <- false;
      Wait_queue.wake_all t.resume_wq;
      (* close every span the dead session left open — no trace state
         may leak into (or misattribute time across) a reattach *)
      ignore
        (Obs.Trace.abort_open t.config.Config.tracer
           ~reason:(String.map (fun c -> if c = ' ' then '_' else c) reason));
      let began = Sim.Engine.now (Kernel.engine t.kernel) in
      (* all open virtual files lose their backend descriptors *)
      Memory.Int_tbl.iter
        (fun file_id _ -> Memory.Int_tbl.replace t.stale_vfds file_id reason)
        t.vfds;
      Memory.Int_tbl.reset t.vfds;
      t.fasync_files <- [];
      let revoked = Hypervisor.Grant_table.revoke_all t.grant_table in
      let torn = Hypervisor.Hyp.teardown_vm_mappings t.hyp ~target:t.guest_vm in
      (* one hypercall per destroyed mapping plus the revoke sweep *)
      Kernel.charge t.kernel
        (float_of_int (1 + torn) *. t.config.Config.hypercall_us);
      let finished = Sim.Engine.now (Kernel.engine t.kernel) in
      t.fstats <-
        {
          t.fstats with
          sessions_faulted = t.fstats.sessions_faulted + 1;
          grants_revoked = t.fstats.grants_revoked + revoked;
          mappings_torn = t.fstats.mappings_torn + torn;
          last_faulted_at = began;
          last_teardown_us = finished -. began;
        }

(** Re-establish a faulted session over a fresh channel pool (the
    driver VM rebooted, §7.2).  Stale files stay stale — the guest
    must reopen them — but new opens work immediately. *)
let reattach t ~pool =
  t.pool <- pool;
  t.session <- Healthy;
  spawn_notify_dispatcher t pool

(* ---- planned handoff: quiesce / resume (hot upgrade, migration) ---- *)

(** Stop issuing onto the transport: operations arriving from here on
    park on [resume_wq].  In-flight operations are unaffected — the
    caller (Machine) drains or retires them separately. *)
let quiesce t = t.paused <- true

let is_paused t = t.paused

(** Operations replayed across a planned handoff so far. *)
let ops_parked t = t.ops_parked

(** Wake the parked operations onto the (optionally new) pool.  [pool]
    present installs the successor transport and spawns its
    notification dispatcher; absent resumes on the {e current} pool —
    the soft-rollback path of an aborted handoff, where the old
    transport never died and already has a dispatcher. *)
let resume ?pool t =
  (match pool with
  | Some p ->
      t.pool <- p;
      spawn_notify_dispatcher t p
  | None -> ());
  t.paused <- false;
  Wait_queue.wake_all t.resume_wq

(* Forward through the pause gate.  A {!Channel.Retired} straggler —
   the transport was swapped while the operation was in flight — parks
   and replays on the successor: at-least-once across a handoff, same
   contract as RPC retries.  If the session faults instead of
   resuming, a parked operation fails EIO (the op was possibly
   executed: EIO, not ENODEV, exactly as a mid-operation transport
   death). *)
let rec pool_rpc t ~parked ~trace ~encode ~decode =
  while t.paused do
    Wait_queue.sleep t.resume_wq
  done;
  if t.session = Faulted then
    if parked then Errno.fail Errno.EIO "driver VM died under a parked operation"
    else Errno.fail Errno.ENODEV "driver VM session faulted";
  try Chan_pool.rpc t.pool ~trace ~encode ~decode
  with Channel.Retired ->
    t.ops_parked <- t.ops_parked + 1;
    pool_rpc t ~parked:true ~trace ~encode ~decode

(* The watchdog: ping the backend with a no-op under a deadline; after
   [heartbeat_miss_limit] consecutive misses (or a transport EIO,
   which is definitive) declare the driver VM dead.  Idles while the
   session is faulted and resumes once reattached. *)
let heartbeat_encode buf = Proto.encode_request_into buf ~grant_ref:0 ~pid:0 Proto.Rnoop

let spawn_watchdog t =
  let interval = t.config.Config.heartbeat_interval_us in
  if interval > 0. then
    Sim.Engine.spawn (Kernel.engine t.kernel) ~name:"cvd-watchdog" (fun () ->
        let rec loop misses =
          if not t.hb_stop then begin
            Sim.Engine.wait interval;
            if not t.hb_stop then
              match t.session with
              | Faulted -> loop 0
              | Healthy when t.hb_suspended ->
                  (* planned handoff in progress: the backend is
                     legitimately not answering; a ping now would count
                     a miss against a healthy driver VM *)
                  loop 0
              | Healthy -> (
                  match
                    Chan_pool.rpc ~timeout_us:interval t.pool ~trace:0
                      ~encode:heartbeat_encode ~decode:Proto.decode_response
                  with
                  | (_ : Proto.response) -> loop 0
                  | exception Channel.Retired ->
                      (* transport swapped under the ping: not a fault *)
                      loop 0
                  | exception Errno.Unix_error (Errno.EIO, _) ->
                      fault_session t ~reason:"heartbeat: transport dead";
                      loop 0
                  | exception (Errno.Unix_error (Errno.ETIMEDOUT, _) | Chan_pool.Busy)
                    ->
                      t.fstats <-
                        {
                          t.fstats with
                          heartbeat_misses = t.fstats.heartbeat_misses + 1;
                        };
                      if misses + 1 >= t.config.Config.heartbeat_miss_limit then begin
                        fault_session t ~reason:"heartbeat: driver VM unresponsive";
                        loop 0
                      end
                      else loop (misses + 1))
          end
        in
        loop 0)

let stop_watchdog t = t.hb_stop <- true

(** Suspend heartbeat pings for a planned quiesce: however long the
    handoff takes, no misses accrue and the watchdog cannot declare a
    healthy driver VM dead mid-upgrade. *)
let suspend_watchdog t = t.hb_suspended <- true

let resume_watchdog t = t.hb_suspended <- false

let create ~kernel ~hyp ~guest_vm ~pool ~config =
  let grant_table = Hypervisor.Hyp.setup_grant_table hyp guest_vm in
  Hypervisor.Grant_table.set_quota grant_table config.Config.max_grant_entries;
  let t =
    {
      kernel;
      hyp;
      guest_vm;
      pool;
      grant_table;
      config;
      entries = Hashtbl.create 8;
      vfds = Memory.Int_tbl.create 16;
      stale_vfds = Memory.Int_tbl.create 16;
      fasync_files = [];
      session = Healthy;
      paused = false;
      resume_wq = Wait_queue.create (Kernel.engine kernel);
      ops_parked = 0;
      ops_forwarded = 0;
      jit_evaluations = 0;
      hb_stop = false;
      hb_suspended = false;
      fstats =
        {
          sessions_faulted = 0;
          grants_revoked = 0;
          mappings_torn = 0;
          heartbeat_misses = 0;
          last_faulted_at = nan;
          last_teardown_us = nan;
        };
    }
  in
  spawn_notify_dispatcher t pool;
  spawn_watchdog t;
  t

(* ---- grant management ---- *)

(** Declare the operation's legitimate memory operations; returns the
    grant reference (or 0 when validation is disabled for ablation).
    A guest past its outstanding-entry quota sees ENOMEM, exactly as a
    real kernel out of grant slots would. *)
let declare t ops =
  let declare_checked ops =
    try Hypervisor.Grant_table.declare t.grant_table ops
    with Hypervisor.Grant_table.Quota_exceeded ->
      Errno.fail Errno.ENOMEM "grant quota exhausted"
  in
  if not t.config.Config.validate_grants then 0
  else
    match ops with
    | [] ->
        (* groups cannot be empty; declare a harmless zero-length entry *)
        declare_checked [ Hypervisor.Grant_table.Copy_from_user { addr = 0; len = 0 } ]
    | _ :: _ ->
        Kernel.charge t.kernel
          (float_of_int (List.length ops) *. t.config.Config.grant_declare_us);
        declare_checked ops

let release t grant_ref =
  if t.config.Config.validate_grants then
    Hypervisor.Grant_table.release t.grant_table grant_ref

(* ---- forwarding core ---- *)

let errno_of_code code =
  match Errno.of_code code with Some e -> e | None -> Errno.EIO

(* The exchange proper, under a declared grant.  An oversized request
   (e.g. an over-long open path) fails before a ring slot is taken:
   the derived encoder refuses what the decoder would reject instead
   of corrupting adjacent slot words. *)
let exchange t (task : Defs.task) ~grant_ref ~trace req =
  (try Proto.check_request req
   with Proto.Oversized { field; length; limit } ->
     Errno.fail Errno.ENAMETOOLONG
       (Printf.sprintf "%s: %d bytes exceeds wire limit %d" field length limit));
  let encode buf =
    Proto.encode_request_into buf ~grant_ref ~pid:task.Defs.pid req;
    Proto.set_trace buf trace
  in
  try pool_rpc t ~parked:false ~trace ~encode ~decode:Proto.decode_response with
  | Chan_pool.Busy -> Errno.fail Errno.EBUSY "per-guest operation cap reached"
  | Errno.Unix_error (Errno.EIO, _) as e ->
      fault_session t ~reason:"transport failure mid-operation";
      raise e

let declare_and_exchange t (task : Defs.task) ~ops ~trace req =
  let tracer = t.config.Config.tracer in
  let decl_sp =
    Obs.Trace.span_begin tracer ~trace ~lane:Obs.Trace.Frontend ~cat:"stage"
      ~name:"front:declare" ()
  in
  Hypervisor.Hyp.register_process t.hyp t.guest_vm ~pid:task.Defs.pid ~pt:task.Defs.pt;
  let grant_ref = declare t ops in
  Obs.Trace.span_end tracer decl_sp;
  (* after a transport death the table was already revoked wholesale *)
  match exchange t task ~grant_ref ~trace req with
  | resp ->
      if t.session = Healthy then release t grant_ref;
      resp
  | exception e ->
      if t.session = Healthy then release t grant_ref;
      raise e

(** Forward one operation: declare, register the issuing process with
    the hypervisor, rpc and decode, release.

    Error paths are kept distinct: a {e decoded} [Rerr] is the remote
    driver failing an operation (normal; surfaced to the caller); a
    {e raised} EIO is the transport itself dying mid-exchange, which
    faults the whole session; ETIMEDOUT (deadline exhausted) surfaces
    to the caller without faulting — one wedged worker is not a dead
    driver VM, the watchdog decides that. *)
let forward t (task : Defs.task) ~ops req : Proto.response =
  if t.session = Faulted then
    Errno.fail Errno.ENODEV "driver VM session faulted";
  t.ops_forwarded <- t.ops_forwarded + 1;
  let tracer = t.config.Config.tracer in
  let trace = Obs.Trace.mint_id tracer in
  let op_sp =
    Obs.Trace.span_begin tracer ~trace ~lane:Obs.Trace.Frontend ~cat:"op"
      ~name:(Proto.request_name req) ()
  in
  match declare_and_exchange t task ~ops ~trace req with
  | resp ->
      Obs.Trace.span_end tracer op_sp;
      resp
  | exception exn ->
      Obs.Trace.span_end ~status:"error" tracer op_sp;
      raise exn

let int_result = function
  | Proto.Rok v -> v
  | Proto.Rerr code -> Errno.fail (errno_of_code code) "remote operation failed"
  | Proto.Rpoll_reply _ -> Errno.fail Errno.EIO "unexpected poll reply"
  | Proto.Rbatch_reply _ -> Errno.fail Errno.EIO "unexpected batch reply"

(** Forward an io_uring-style multi-op batch: every request rides one
    ring slot / one doorbell and is executed sequentially by the
    backend.  Returns one response per sub-op, in submission order (a
    failing sub-op occupies its reply slot as [Rerr]; it does not abort
    the batch).  Only small fixed-size data-path operations are
    batchable — see {!Proto.Rbatch}.  [ops] declares the grants every
    sub-op may touch, under one grant_ref, exactly as for a singleton
    forward. *)
let forward_batch t (task : Defs.task) ~ops reqs : Proto.response list =
  match forward t task ~ops (Proto.Rbatch reqs) with
  | Proto.Rbatch_reply subs ->
      if List.length subs <> List.length reqs then
        Errno.fail Errno.EIO "batch reply arity mismatch"
      else subs
  | Proto.Rerr code -> Errno.fail (errno_of_code code) "remote batch failed"
  | Proto.Rok _ | Proto.Rpoll_reply _ ->
      Errno.fail Errno.EIO "unexpected batch reply shape"

let vfd_of t (file : Defs.file) =
  match Memory.Int_tbl.find_opt t.stale_vfds file.Defs.file_id with
  | Some reason ->
      Errno.fail Errno.ENODEV
        ("backend session died under this file (" ^ reason ^ ")")
  | None -> (
      match Memory.Int_tbl.find_opt t.vfds file.Defs.file_id with
      | Some vfd -> vfd
      | None -> Errno.fail Errno.EINVAL "virtual file has no backend descriptor")

(** Convenience over {!forward_batch}: issue [cmds] (pointer-free
    ioctls such as netmap txsync or the no-op probe) on one open file
    as a single multi-op descriptor.  Returns the per-sub-op int
    results in submission order; the first failing sub-op raises its
    errno. *)
let batch_ioctl t task file cmds =
  let vfd = vfd_of t file in
  let reqs = List.map (fun (cmd, arg) -> Proto.Rioctl { vfd; cmd; arg }) cmds in
  forward_batch t task ~ops:[] reqs
  |> List.map (function
       | Proto.Rok v -> v
       | Proto.Rerr code ->
           Errno.fail (errno_of_code code) "batched ioctl sub-op failed"
       | Proto.Rpoll_reply _ | Proto.Rbatch_reply _ ->
           Errno.fail Errno.EIO "batched ioctl: unexpected sub-op reply")

(** Where a guest file stands with respect to its backend session. *)
type file_status =
  | Live  (** has a working backend descriptor *)
  | Stale_retryable of string
      (** the session under it died but has since been re-established:
          operations fail ENODEV, but a fresh [open] succeeds — the
          "close and reopen me" signal *)
  | Stale_dead of string
      (** stale and the session is still down: reopening fails too *)
  | Unknown  (** never opened here (or already released) *)

let file_status t (file : Defs.file) =
  match Memory.Int_tbl.find_opt t.stale_vfds file.Defs.file_id with
  | Some reason ->
      if t.session = Healthy then Stale_retryable reason else Stale_dead reason
  | None -> if Memory.Int_tbl.mem t.vfds file.Defs.file_id then Live else Unknown

(* ---- ioctl memory-operation identification (§4.1) ---- *)

let ioctl_ops t (task : Defs.task) ~path ~cmd ~arg =
  let arg_int = Int64.to_int arg in
  match t.config.Config.ioctl_id_mode with
  | Config.Macro_only -> Analyzer.Cmd_macro.ops_of_cmd cmd ~arg:arg_int
  | Config.Analyzer_table -> (
      match Hashtbl.find_opt t.entries path with
      | None -> Analyzer.Cmd_macro.ops_of_cmd cmd ~arg:arg_int
      | Some table ->
          (match Analyzer.Extract.entry_for table cmd with
          | Some (Analyzer.Extract.Jit _) -> t.jit_evaluations <- t.jit_evaluations + 1
          | _ -> ());
          Analyzer.Extract.ops_for table ~cmd ~arg:arg_int
            ~read_user:(fun ~addr ~len -> Task.read_mem task ~gva:addr ~len))

(* ---- the virtual device file ---- *)

(** Create the virtual device file for an exported device.  [entries]
    is the analyzer's table for the device's driver (ioctl-capable
    classes); [kinds] the operations the real driver implements. *)
let export t ~path ~cls ~driver ?(exclusive = false) ?entries ~kinds () =
  (match entries with
  | Some e -> Hashtbl.replace t.entries path e
  | None -> ());
  (* the guest kernel must know every forwarded operation kind *)
  List.iter
    (fun k ->
      if not (Os_flavor.supports (Kernel.flavor t.kernel) k) then
        invalid_arg
          (Printf.sprintf "device %s needs op %s, unsupported by %s" path
             (Os_flavor.op_kind_name k)
             (Os_flavor.name (Kernel.flavor t.kernel))))
    kinds;
  let remote_fail resp = int_result resp in
  let ops =
    {
      Defs.fop_kinds = kinds;
      fop_open =
        (fun task file ->
          let vfd =
            remote_fail (forward t task ~ops:[] (Proto.Ropen { path }))
          in
          Memory.Int_tbl.replace t.vfds file.Defs.file_id vfd);
      fop_release =
        (fun task file ->
          if Memory.Int_tbl.mem t.stale_vfds file.Defs.file_id then begin
            (* the backend died under this file: nothing to tell a dead
               (or rebooted and amnesiac) driver VM, clean up locally
               so close() succeeds and the slot is reusable *)
            Memory.Int_tbl.remove t.stale_vfds file.Defs.file_id;
            t.fasync_files <- List.filter (fun f -> f != file) t.fasync_files
          end
          else begin
            let vfd = vfd_of t file in
            Memory.Int_tbl.remove t.vfds file.Defs.file_id;
            t.fasync_files <- List.filter (fun f -> f != file) t.fasync_files;
            ignore (remote_fail (forward t task ~ops:[] (Proto.Rrelease { vfd })))
          end);
      fop_read =
        (fun task file ~buf ~len ->
          let ops = [ Hypervisor.Grant_table.Copy_to_user { addr = buf; len } ] in
          remote_fail
            (forward t task ~ops (Proto.Rread { vfd = vfd_of t file; buf; len })));
      fop_write =
        (fun task file ~buf ~len ->
          let ops = [ Hypervisor.Grant_table.Copy_from_user { addr = buf; len } ] in
          remote_fail
            (forward t task ~ops (Proto.Rwrite { vfd = vfd_of t file; buf; len })));
      fop_ioctl =
        (fun task file ~cmd ~arg ->
          let ops = ioctl_ops t task ~path ~cmd ~arg in
          remote_fail
            (forward t task ~ops (Proto.Rioctl { vfd = vfd_of t file; cmd; arg })));
      fop_mmap =
        (fun task file vma ->
          let gva = vma.Defs.vma_start and len = vma.Defs.vma_len in
          (* create all guest page-table levels except the last (§5.2) *)
          Memory.Guest_pt.prepare_range task.Defs.pt ~gva ~len;
          let ops = [ Hypervisor.Grant_table.Map_page { addr = gva; len } ] in
          ignore
            (remote_fail
               (forward t task ~ops
                  (Proto.Rmmap
                     { vfd = vfd_of t file; gva; len; pgoff = vma.Defs.vma_pgoff }))));
      fop_fault =
        (fun task file _vma ~gva ->
          Memory.Guest_pt.prepare_range task.Defs.pt ~gva ~len:Memory.Addr.page_size;
          let ops =
            [ Hypervisor.Grant_table.Map_page { addr = gva; len = Memory.Addr.page_size } ]
          in
          ignore
            (remote_fail (forward t task ~ops (Proto.Rfault { vfd = vfd_of t file; gva }))));
      fop_vma_close =
        (fun task file vma ->
          ignore
            (remote_fail
               (forward t task ~ops:[]
                  (Proto.Rmunmap
                     {
                       vfd = vfd_of t file;
                       gva = vma.Defs.vma_start;
                       len = vma.Defs.vma_len;
                     }))));
      fop_poll =
        (fun task file ~want_in ~want_out ->
          (* The backend blocks inside the driver's poll.  Forward the
             caller's real interest mask in bounded chunks and loop
             until an event the caller asked about is ready, so the
             guest pays one forwarded operation per ready poll syscall,
             as the netmap batching analysis assumes (§6.1.2).  Between
             not-ready chunks the guest backs off adaptively: with a
             poll window it starts at the window (sleeping the full
             fixed backoff would double-pay the wakeup the window just
             saved), doubling on each not-ready chunk up to
             [poll_forward_backoff_us] — the spin bound that keeps a
             never-ready device from starving the ring.  Under
             interrupts the backoff is that constant from the first
             chunk. *)
          let vfd = vfd_of t file in
          let cap = t.config.Config.poll_forward_backoff_us in
          let window = t.config.Config.poll_window_us in
          let initial = if window > 0. then Float.min window cap else cap in
          let rec ask backoff =
            match
              forward t task ~ops:[]
                (Proto.Rpoll
                   {
                     vfd;
                     want_in;
                     want_out;
                     timeout_us = t.config.Config.poll_forward_chunk_us;
                   })
            with
            | Proto.Rpoll_reply { pollin; pollout } ->
                if (want_in && pollin) || (want_out && pollout) then
                  { Defs.pollin; pollout; poll_wq = None }
                else begin
                  if backoff > 0. then Sim.Engine.wait backoff;
                  ask (if backoff <= 0. then cap else Float.min (backoff *. 2.) cap)
                end
            | other ->
                ignore (int_result other);
                Defs.no_poll
          in
          ask initial);
      fop_fasync =
        (fun task file ~on ->
          (* mutate the notification list only once the backend has
             accepted the registration: a failed Rfasync must not leave
             the frontend delivering (or dropping) SIGIO for a file the
             driver never subscribed *)
          match forward t task ~ops:[] (Proto.Rfasync { vfd = vfd_of t file; on }) with
          | Proto.Rok _ ->
              if on then begin
                if not (List.memq file t.fasync_files) then
                  t.fasync_files <- file :: t.fasync_files
              end
              else t.fasync_files <- List.filter (fun f -> f != file) t.fasync_files
          | (Proto.Rerr _ | Proto.Rpoll_reply _ | Proto.Rbatch_reply _) as resp
            ->
              ignore (remote_fail resp));
    }
  in
  let dev = Defs.make_device ~path ~cls ~driver:("cvd/" ^ driver) ~exclusive ops in
  Devfs.register (Kernel.devfs t.kernel) dev;
  dev
