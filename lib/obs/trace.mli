(** Span-based tracing for the CVD pipeline on simulated time.

    A trace id is minted per forwarded operation and carried in its
    descriptor; every pipeline stage opens a span against it.  The
    tracer only {e reads} the simulation clock — it never waits — so
    enabling it cannot perturb a simulated-time result, and the
    {!disabled} sink makes it zero-cost when off.  Completed spans
    feed the {!Metrics} histograms (keyed ["cat.name"]) and the
    Chrome trace-event exporter ({!to_chrome_json}, Perfetto-loadable). *)

type lane = Frontend | Transport | Ring | Backend | Hypervisor | Machine

val lane_pid : lane -> int
val lane_name : lane -> string

type span

type completed = {
  c_trace : int;
  c_lane : lane;
  c_cat : string;
  c_name : string;
  c_start : float;
  c_dur : float;
  c_status : string;
  c_args : (string * float) list;
}

type counter_event = {
  k_lane : lane;
  k_name : string;
  k_ts : float;
  k_value : float;
}

type t

(** The shared no-op sink: every operation is a single boolean check. *)
val disabled : t

val create : unit -> t
val enabled : t -> bool
val metrics : t -> Metrics.t

(** Point the tracer at the owning engine's clock
    ([fun () -> Sim.Engine.now engine]); {!Machine.create} does this. *)
val attach_clock : t -> (unit -> float) -> unit

(** Fresh per-operation trace id; 0 ("untraced") when disabled. *)
val mint_id : t -> int

(** Whether {!span_begin} against [trace] would record: the sink is
    enabled and [trace] is not 0.  Guard span names that cost an
    allocation to build. *)
val recording : t -> trace:int -> bool

(** Open a span.  Returns a shared dummy (nothing recorded) when the
    sink is disabled or [trace] is 0. *)
val span_begin : t -> trace:int -> lane:lane -> cat:string -> name:string -> unit -> span

(** Attach a numeric argument to a still-open span. *)
val span_arg : span -> string -> float -> unit

(** Close a span; idempotent, so an {!abort_open} sweep and a
    [Fun.protect] finaliser may both close the same span safely. *)
val span_end : ?status:string -> t -> span -> unit

(** Record an already-finished span whose trace id was only known at
    the end (e.g. the backend drain reads it from the descriptor). *)
val add_complete :
  ?status:string ->
  ?args:(string * float) list ->
  t ->
  trace:int ->
  lane:lane ->
  cat:string ->
  name:string ->
  start:float ->
  unit ->
  unit

(** Run [f] inside a span; an escaping exception closes it with
    status ["error"] before re-raising. *)
val with_span :
  t -> trace:int -> lane:lane -> cat:string -> name:string -> (unit -> 'a) -> 'a

(** Emit one sample of a numeric counter series (Chrome "C" event). *)
val counter : t -> lane:lane -> name:string -> float -> unit

(** Close every open span with status ["error:reason"], in creation
    order; returns how many were closed.  Run on session fault so no
    trace state leaks across a reattach. *)
val abort_open : t -> reason:string -> int

val open_count : t -> int

(** Completed spans, in completion order. *)
val completed : t -> completed list

(** Counter samples, in emission order. *)
val counter_events : t -> counter_event list

(** Drop recorded events and open-span state; ids keep counting. *)
val reset : t -> unit

(** Serialise as a Chrome trace-event JSON array (Perfetto-loadable):
    metadata process names per lane, a "ph":"X" event per span with
    [tid] = trace id, a "ph":"C" event per counter sample; [ts]/[dur]
    are simulated microseconds. *)
val to_chrome_json : t -> string

type reconciliation = {
  r_ops : int;  (** operations with both an op span and stage spans *)
  r_max_gap_us : float;  (** worst |op duration − sum of its stages| *)
}

(** Per-trace check that the non-overlapping ["stage"] spans tile the
    end-to-end ["op"] span — the executable §6.1 cost breakdown. *)
val reconcile : t -> reconciliation
