(** The CVD backend (§3.1, §5.1): per-guest workers in the driver VM
    that mark themselves as acting for the remote guest process and
    invoke the real driver through the driver VM's own VFS. *)

type guest_link = {
  guest_vm : Hypervisor.Vm.t;
  pool : Chan_pool.t;
  files : file_state Memory.Int_tbl.t;
  mutable next_vfd : int;
  mutable ops_served : int;
  mutable malformed : int;  (** undecodable descriptors *)
  mutable rejected : int;  (** sanitization refusals *)
  mutable grant_faults : int;
      (** hypervisor grant-validation rejections charged to this guest *)
  mutable quota_breaches : int;  (** vfd-cap and grant-quota refusals *)
  mutable throttle_events : int;  (** CPU-budget enforcement pauses *)
  mutable cpu_used_us : float;  (** backend CPU charged this window *)
  mutable cpu_window_start : float;
  mutable max_dispatch_len : int;
      (** largest read/write length that survived sanitization — the
          backend's allocation bound witness *)
  mutable score : int;  (** weighted misbehavior score *)
  mutable quarantined : bool;
  mutable grant_quota_seen : int;
}

and file_state = {
  file : Oskit.Defs.file;
  mutable vmas : Oskit.Defs.vma list;
}

type t

val create :
  kernel:Oskit.Kernel.t ->
  hyp:Hypervisor.Hyp.t ->
  config:Config.t ->
  policy:Policy.t ->
  t

(** Allow guests to open this driver-VM device path. *)
val export : t -> string -> unit

val exports : t -> string list
val link_stats : guest_link -> int * Chan_pool.stats
val is_killed : t -> bool

(** The driver VM crashed: stop serving.  [poison] (default true)
    kills every channel, waking blocked parties; false models a silent
    death — channels stay up but requests vanish unanswered, leaving
    detection to deadlines or the watchdog.  Safe from engine
    callbacks. *)
val kill : ?poison:bool -> t -> unit

(** Fault-site keys understood by the backend workers: ["back.wedge"]
    hangs a worker between execute and respond; ["cvd.crash"] models a
    mid-RPC driver-VM death (arm an [on_fire] hook to perform the
    kill). *)
val site_wedge : string

val site_crash : string

(** Connect a guest: create its channel pool and workers, start
    serving. *)
val connect : t -> guest_vm:Hypervisor.Vm.t -> guest_link

(** {1 Planned handoff (hot upgrade / session migration)} *)

(** Is this link one of ours?  (Which driver VM a migrating session
    currently lives on.) *)
val has_link : t -> guest_link -> bool

(** Checkpoint a guest's session: open files (ascending vfd) with
    flags and VMA layout, outstanding grant groups, and the full
    containment record — quarantine and quotas survive the handoff. *)
val checkpoint_link : t -> guest_link -> Snapshot.link_snap

(** Quietly close every backend file of the link (departing side of a
    handoff): open counts drop and SIGIO subscriptions are dropped,
    but grants and hypervisor mappings are left in place for the
    successor to re-validate. *)
val release_link_files : t -> guest_link -> unit

(** Remove the link from this backend's service list. *)
val detach_link : t -> guest_link -> unit

type restore_stats = {
  rs_files : int;  (** files re-opened at their snapshotted vfd *)
  rs_dropped : int;  (** snapshot entries refused by re-validation *)
  rs_vmas : int;  (** VMA mirrors rebuilt *)
  rs_fasync : int;  (** SIGIO subscriptions re-armed *)
}

(** Restore a checkpointed session onto this (successor) backend:
    fresh pool/workers, containment record carried over, every file
    re-validated through the same sanitization as a live [Ropen] and
    re-opened at its preserved vfd; VMA mirrors rebuilt without
    re-running [fop_mmap] (hypervisor mappings are guest-keyed and
    survive in place).  [fail_site] is a per-file abort-style fault
    site: on firing the partial restore is torn down and
    {!Sim.Fault_inject.Injected} re-raised. *)
val restore_link :
  t ->
  snap:Snapshot.link_snap ->
  guest_vm:Hypervisor.Vm.t ->
  ?fail_site:string ->
  unit ->
  guest_link * restore_stats

(** {1 Hostile-guest containment (§4, §7.1)} *)

(** Serve one raw descriptor through decode → sanitize → dispatch.
    Containment contract: every failure mode of a hostile descriptor
    (garbage bytes, out-of-bound fields, undeclared memory operations,
    a raising driver handler) becomes an error response — no exception
    escapes.  Exposed so adversarial tests can drive the backend with
    mutated bytes directly; [worker] must be a task of the backend's
    kernel. *)
val serve_one : t -> guest_link -> Oskit.Defs.task -> bytes -> Proto.response

(** Force a guest into quarantine: open files force-released, grants
    revoked, cross-VM mappings torn down, channels poisoned.  Sibling
    links keep full service.  Normally triggered by the misbehavior
    score crossing [Config.quarantine_threshold]. *)
val quarantine : t -> guest_link -> Oskit.Defs.task -> unit

(** Misbehavior weights feeding [guest_link.score]. *)
val score_malformed : int

val score_rejected : int
val score_grant_fault : int
val score_quota_breach : int
