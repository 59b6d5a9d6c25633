(** Span-based tracing for the CVD pipeline, on simulated time.

    Every forwarded file operation gets a {e trace id} minted by the
    frontend and carried in its descriptor; each pipeline stage —
    frontend publish, request doorbell, ring-slot residency, backend
    drain, driver dispatch, hypervisor memory operations, response
    doorbell, frontend completion — opens a span against that id.
    Spans are timestamped with the simulation clock only: the tracer
    never calls {!Sim.Engine.wait}, so enabling it cannot perturb any
    simulated-time result.

    The {!disabled} sink makes tracing zero-cost-when-off: every entry
    point checks one boolean and returns a preallocated dummy, with no
    allocation and no table updates.

    Completed spans feed (a) the per-key {!Metrics} histograms (keyed
    ["cat.name"], so per-op-type latency distributions come for free)
    and (b) the Chrome trace-event JSON exporter ({!to_chrome_json}),
    loadable in Perfetto / chrome://tracing.

    Open spans are tracked so a fault path can close every one of them
    with an error status ({!abort_open}): a driver-VM crash must not
    leak half-open trace state into the next session. *)

(** Display lane of a span: rendered as a Chrome trace "process" so
    the frontend, transport, backend and hypervisor stack into
    separate swimlane groups. *)
type lane = Frontend | Transport | Ring | Backend | Hypervisor | Machine

let lane_pid = function
  | Frontend -> 1
  | Transport -> 2
  | Ring -> 3
  | Backend -> 4
  | Hypervisor -> 5
  | Machine -> 6

let lane_name = function
  | Frontend -> "frontend (guest)"
  | Transport -> "transport (doorbells)"
  | Ring -> "descriptor ring"
  | Backend -> "backend (driver VM)"
  | Hypervisor -> "hypervisor"
  | Machine -> "machine (maintenance)"

let lanes = [ Frontend; Transport; Ring; Backend; Hypervisor; Machine ]

type span = {
  sp_id : int;
  sp_trace : int;
  sp_lane : lane;
  sp_cat : string;
  sp_name : string;
  sp_start : float;
  mutable sp_args : (string * float) list;
  mutable sp_closed : bool;
}

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

type t = {
  enabled : bool;
  mutable clock : unit -> float; (* the owning machine's engine clock *)
  mutable next_trace : int;
  mutable next_span : int;
  mutable spans : completed list; (* reverse completion order *)
  mutable counter_events : counter_event list; (* reverse order *)
  open_spans : (int, span) Hashtbl.t;
  metrics : Metrics.t;
}

(* The shared no-op sink and the dummy span every disabled (or
   untraced, trace id 0) begin returns.  [sp_closed = true] makes
   span_end a no-op on it. *)
let dummy_span =
  {
    sp_id = 0;
    sp_trace = 0;
    sp_lane = Frontend;
    sp_cat = "";
    sp_name = "";
    sp_start = 0.;
    sp_args = [];
    sp_closed = true;
  }

let make ~enabled =
  {
    enabled;
    clock = (fun () -> 0.);
    next_trace = 0;
    next_span = 0;
    spans = [];
    counter_events = [];
    open_spans = Hashtbl.create 16;
    metrics = Metrics.create ();
  }

let disabled = make ~enabled:false
let create () = make ~enabled:true
let enabled t = t.enabled
let metrics t = t.metrics

(** Point the tracer at the simulation clock; {!Machine.create} does
    this for [Config.tracer].  Until attached, timestamps read 0. *)
let attach_clock t clock = if t.enabled then t.clock <- clock

(** Fresh trace id for one forwarded operation; 0 (= "untraced") when
    the sink is disabled. *)
let mint_id t =
  if not t.enabled then 0
  else begin
    t.next_trace <- t.next_trace + 1;
    t.next_trace
  end

(** Open a span against [trace].  With the sink disabled — or for an
    untraced operation (trace id 0, e.g. the watchdog heartbeat) — the
    shared dummy span is returned and nothing is recorded. *)
let recording t ~trace = t.enabled && trace <> 0

let span_begin t ~trace ~lane ~cat ~name () =
  if not (recording t ~trace) then dummy_span
  else begin
    t.next_span <- t.next_span + 1;
    let sp =
      {
        sp_id = t.next_span;
        sp_trace = trace;
        sp_lane = lane;
        sp_cat = cat;
        sp_name = name;
        sp_start = t.clock ();
        sp_args = [];
        sp_closed = false;
      }
    in
    Hashtbl.replace t.open_spans sp.sp_id sp;
    sp
  end

let span_arg sp key v = if not sp.sp_closed then sp.sp_args <- (key, v) :: sp.sp_args

(** Close a span: record the completed event and feed the
    ["cat.name"] metrics histogram.  Idempotent — closing an
    already-closed (or dummy) span does nothing, so a fault path's
    {!abort_open} and a [Fun.protect] finaliser may race safely. *)
let span_end ?(status = "ok") t sp =
  if t.enabled && not sp.sp_closed then begin
    sp.sp_closed <- true;
    Hashtbl.remove t.open_spans sp.sp_id;
    let finish = t.clock () in
    let dur = finish -. sp.sp_start in
    t.spans <-
      {
        c_trace = sp.sp_trace;
        c_lane = sp.sp_lane;
        c_cat = sp.sp_cat;
        c_name = sp.sp_name;
        c_start = sp.sp_start;
        c_dur = dur;
        c_status = status;
        c_args = List.rev sp.sp_args;
      }
      :: t.spans;
    Metrics.observe t.metrics (sp.sp_cat ^ "." ^ sp.sp_name) dur
  end

(** Record an already-finished span in one shot — for stages whose
    trace id is only known at the end (e.g. the backend drain learns
    the id from the descriptor it just read).  [start] comes from the
    caller; the end is now. *)
let add_complete ?(status = "ok") ?(args = []) t ~trace ~lane ~cat ~name ~start () =
  if t.enabled && trace <> 0 then begin
    let dur = t.clock () -. start in
    t.spans <-
      {
        c_trace = trace;
        c_lane = lane;
        c_cat = cat;
        c_name = name;
        c_start = start;
        c_dur = dur;
        c_status = status;
        c_args = args;
      }
      :: t.spans;
    Metrics.observe t.metrics (cat ^ "." ^ name) dur
  end

(** Run [f] inside a span; an escaping exception closes it with an
    error status before re-raising. *)
let with_span t ~trace ~lane ~cat ~name f =
  let sp = span_begin t ~trace ~lane ~cat ~name () in
  match f () with
  | v ->
      span_end t sp;
      v
  | exception exn ->
      span_end ~status:"error" t sp;
      raise exn

(** Emit one sample of a numeric counter series (a Chrome "C" event,
    e.g. ring occupancy). *)
let counter t ~lane ~name value =
  if t.enabled then
    t.counter_events <-
      { k_lane = lane; k_name = name; k_ts = t.clock (); k_value = value }
      :: t.counter_events

(** Close every open span with status ["error:reason"]; returns how
    many were closed.  Called when a session faults (driver-VM crash):
    no trace state may leak across {!Cvd_front.reattach}.  Spans close
    in creation order, so the output is deterministic. *)
let abort_open t ~reason =
  if not t.enabled then 0
  else begin
    let doomed = Hashtbl.fold (fun _ sp acc -> sp :: acc) t.open_spans [] in
    let doomed = List.sort (fun a b -> compare a.sp_id b.sp_id) doomed in
    List.iter (fun sp -> span_end ~status:("error:" ^ reason) t sp) doomed;
    List.length doomed
  end

let open_count t = Hashtbl.length t.open_spans

(** Completed spans, in completion order. *)
let completed t = List.rev t.spans

(** Counter samples, in emission order. *)
let counter_events t = List.rev t.counter_events

(** Drop all recorded events and open-span state (ids keep counting, so
    a reused tracer never reissues a trace id). *)
let reset t =
  t.spans <- [];
  t.counter_events <- [];
  Hashtbl.reset t.open_spans;
  Metrics.reset t.metrics

(* ---- Chrome trace-event JSON export (Perfetto-loadable) ---- *)

let escape_json s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let add_event buf ~first json =
  if not !first then Buffer.add_string buf ",\n";
  first := false;
  Buffer.add_string buf json

(** Serialise everything recorded so far as a Chrome trace-event JSON
    array: one metadata [process_name] event per lane, a complete
    ("ph":"X") event per span — [tid] is the trace id, so each
    operation renders as its own row — and a counter ("ph":"C") event
    per {!counter} sample.  Timestamps are simulated microseconds,
    which is exactly the trace-event [ts] unit. *)
let to_chrome_json t =
  let buf = Buffer.create 4096 in
  let first = ref true in
  Buffer.add_string buf "[\n";
  List.iter
    (fun lane ->
      add_event buf ~first
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           (lane_pid lane)
           (escape_json (lane_name lane))))
    lanes;
  List.iter
    (fun c ->
      let args =
        String.concat ","
          ((Printf.sprintf "\"status\":\"%s\"" (escape_json c.c_status))
          :: List.map (fun (k, v) -> Printf.sprintf "\"%s\":%g" (escape_json k) v) c.c_args)
      in
      add_event buf ~first
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{%s}}"
           (escape_json c.c_name) (escape_json c.c_cat) c.c_start c.c_dur
           (lane_pid c.c_lane) c.c_trace args))
    (completed t);
  List.iter
    (fun k ->
      add_event buf ~first
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":%d,\"tid\":0,\"args\":{\"value\":%g}}"
           (escape_json k.k_name) k.k_ts (lane_pid k.k_lane) k.k_value))
    (counter_events t);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

(* ---- reconciliation (the §6.1 cost-breakdown check) ---- *)

type reconciliation = {
  r_ops : int; (* operations with both an op span and stage spans *)
  r_max_gap_us : float; (* worst |op duration - sum of its stages| *)
}

(** Check that, per trace id, the non-overlapping ["stage"] spans tile
    the end-to-end ["op"] span: their durations must sum to the
    operation's duration.  This is the executable form of the paper's
    §6.1 cost breakdown — every microsecond of a forwarded operation
    is attributed to exactly one pipeline stage. *)
let reconcile t =
  let ops = Hashtbl.create 64 and stages = Hashtbl.create 64 in
  List.iter
    (fun c ->
      if c.c_status = "ok" then
        if c.c_cat = "op" then Hashtbl.replace ops c.c_trace c.c_dur
        else if c.c_cat = "stage" then
          Hashtbl.replace stages c.c_trace
            (c.c_dur
            +. (match Hashtbl.find_opt stages c.c_trace with Some s -> s | None -> 0.)))
    (completed t);
  let n = ref 0 and worst = ref 0. in
  Hashtbl.iter
    (fun trace op_dur ->
      match Hashtbl.find_opt stages trace with
      | None -> ()
      | Some stage_sum ->
          incr n;
          let gap = Float.abs (op_dur -. stage_sum) in
          if gap > !worst then worst := gap)
    ops;
  { r_ops = !n; r_max_gap_us = !worst }
