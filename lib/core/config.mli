(** Paradice configuration: every tunable of the system and of its
    calibrated performance model (see EXPERIMENTS.md §Calibration). *)

type ioctl_id_mode =
  | Analyzer_table (** static entries + JIT slices (§4.1) *)
  | Macro_only (** command-number decoding only; nested ioctls fail *)

type t = {
  interrupt_latency_us : float;
  polling_latency_us : float;
  marshal_us : float;
  poll_window_us : float;
      (** how long a side keeps polling the ring after it goes dry
          before it sleeps: 0 = interrupts, [infinity] = polling, a
          short window = NAPI-style hybrid (interrupt to wake, poll
          while work keeps arriving) *)
  cold_threshold_us : float;
  cold_extra_interrupt_us : float;
  cold_extra_polling_us : float;
  validate_grants : bool;
  data_isolation : bool;
  hypercall_us : float;
  grant_declare_us : float;
  region_switch_per_page_us : float;
  ioctl_id_mode : ioctl_id_mode;
  max_queued_ops : int;
  channels_per_guest : int;
  ring_slots : int;
      (** descriptor-ring depth per channel (in-flight RPC bound) *)
  rpc_timeout_us : float;
      (** per-attempt RPC deadline; 0 = block forever (default) *)
  rpc_retries : int;  (** resends after a timeout before ETIMEDOUT *)
  heartbeat_interval_us : float;  (** watchdog ping period; 0 = off *)
  heartbeat_miss_limit : int;  (** missed pings before declaring death *)
  poll_forward_chunk_us : float;  (** backend blocking chunk per poll RPC *)
  poll_forward_backoff_us : float;
      (** frontend sleep between not-ready poll chunks (spin bound) *)
  sanitize_requests : bool;
      (** post-decode request sanitization pass (ablation knob) *)
  ioctl_guards : bool;
      (** analyzer-generated per-ioctl argument sanitizers in front of
          the device handlers (ablation knob) *)
  max_transfer_bytes : int;
      (** largest read/write a guest may request (allocation bound) *)
  poll_timeout_cap_us : float;
      (** forwarded poll timeouts clamped into [0, cap] *)
  max_open_vfds : int;  (** open virtual descriptors per guest link *)
  max_grant_entries : int;
      (** outstanding grant-table entries per guest (quota) *)
  cpu_budget_us : float;
      (** backend CPU budget per guest per window; 0 = unlimited *)
  cpu_budget_window_us : float;  (** budget accounting window *)
  quarantine_threshold : int;
      (** misbehavior score triggering quarantine; 0 = never *)
  driver_reboot_us : float;  (** driver-VM kill -> serving again *)
  upgrade_drain_us : float;
      (** hot upgrade/migration: quiesce drain bound before stragglers
          are parked for replay on the successor *)
  fault_delay_us : float;  (** extra latency when the delay fault fires *)
  injector : Sim.Fault_inject.t option;  (** deterministic fault plan *)
  tracer : Obs.Trace.t;  (** span tracing sink; default {!Obs.Trace.disabled} *)
  sched_wake_us : float;
  da_irq_extra_us : float;
  input_delivery_us : float;
}

(** Interrupts: [poll_window_us = 0]. *)
val default : t

(** A side polls for ever: [poll_window_us = infinity]. *)
val polling : t

(** Interrupt wake + a 20 us poll window. *)
val hybrid : t
val with_data_isolation : t -> t

(** §8's cross-machine DSM transport (future work), modelled as a
    10GbE RDMA-class interconnect. *)
val remote_dsm : t
