(** CVD transport: shared memory descriptor ring + inter-VM signalling
    (§5.1).

    The frontend serialises file operations into ring slots in the
    shared region and rings a doorbell; the backend drains every ready
    descriptor per wakeup and publishes responses the same way back.

    {b Notification.}  One state machine signals both directions,
    parametrised by the poll window [w] ([Config.poll_window_us], live
    via {!set_poll_window}): a side that finds the ring dry keeps
    polling it for [w] before it sleeps.  A handoff to a polling
    receiver costs [polling_latency_us] (a shared-page pickup); a
    handoff to a sleeping one is an inter-VM interrupt,
    [interrupt_latency_us].  [w = 0] is the paper's interrupt mode
    (~17 us per leg), [w = infinity] its polling mode (a side never
    sleeps, every handoff costs under a microsecond) and a short
    window the NAPI-style hybrid: an interrupt wakes an idle side,
    which then rides polling-cost handoffs while work keeps arriving.
    A backend's dry polling per wakeup is capped at
    [poll_budget_windows] windows, so a trickle load cannot pin a CPU.

    {b Ring layout.}  The shared region is a control page followed by
    slot pages:
    - control page: one u32 state word per slot
      (free / req-ready / in-service / resp-ready / delivered) at
      [4*i], and the asynchronous notification counter at [512];
    - slot [i]'s 1 KiB descriptor at [page_size + i * slot_size];
      the response overwrites the request in place.

    Up to [Config.ring_slots] RPCs may be in flight per channel; a
    publisher with no free slot blocks until one completes.

    {b Doorbell coalescing.}  A handoff is sent only when the receiver
    is not already draining: while the backend is awake and draining
    ([back_active]) — or an earlier request handoff is still in flight
    ([req_pending]) — newly published descriptors are picked up by the
    backend's next head re-scan at no signalling cost.  Responses
    coalesce symmetrically on [resp_pending]: one handoff delivers
    every response marked ready since it was raised.  A busy receiver
    polls the ring head between operations and never takes an
    interrupt; only an idle (possibly cold) receiver needs one.

    {b Sequencing.}  Every publish stamps a fresh sequence number into
    the descriptor ({!Proto.seq_off}); the backend echoes the sequence
    it drained into its response.  A waiter discards a response whose
    sequence is not its current attempt's (a late answer to a
    timed-out attempt — at-least-once retries make these legitimate)
    and republishes its own request, which the stale response
    clobbered.

    A handoff whose receiving endpoint has been idle longer than the
    cold threshold pays a surcharge for its kind (idle worker wakeup —
    see {!Config}), except towards a receiver inside a bounded poll
    window, which is awake by construction. *)

type t = {
  engine : Sim.Engine.t;
  config : Config.t;
  region : Hypervisor.Shared_page.t;
  front_view : Hypervisor.Shared_page.view;
  back_view : Hypervisor.Shared_page.view;
  slots : int; (* ring depth *)
  req_rx : unit Sim.Mailbox.t; (* backend wakes here on request doorbells *)
  resp_box : unit Sim.Mailbox.t array; (* per-slot response delivery *)
  notify_rx : unit Sim.Mailbox.t; (* frontend async-notification wakeups *)
  slot_sem : Sim.Semaphore.t; (* free ring slots *)
  free_slots : int Queue.t;
  mutable next_seq : int;
  service_seq : int array; (* backend: seq drained per slot, echoed back *)
  service_active : bool array; (* backend: slot claimed and not yet answered.
                                   Backend-private — unlike the control-page
                                   state word, a guest cannot rewrite it — so
                                   it is the authority on whether a respond
                                   pairs with an outstanding claim. *)
  (* notification state *)
  mutable window : float; (* poll window; starts at [Config.poll_window_us] *)
  mutable back_active : bool; (* backend awake and draining the ring *)
  mutable back_polling : bool; (* backend inside its poll window *)
  mutable req_pending : bool; (* a request handoff is in flight *)
  mutable resp_pending : bool; (* a response handoff is in flight *)
  mutable poll_budget : float; (* dry-poll budget per wakeup *)
  mutable back_poll_budget_left : float; (* dry-poll budget this wakeup *)
  (* Cold-path tracking is per receiving endpoint: a full leg towards a
     worker that has been idle pays the cold surcharge (idle wakeup,
     scheduler, cache refill), while a recently-active receiver is
     hot.  This is what makes back-to-back no-ops cost ~35us while an
     isolated input event costs hundreds (§6.1.1 vs §6.1.5). *)
  mutable front_last_wake : float;
  mutable back_last_wake : float;
  mutable scan_cursor : int; (* backend drain fairness *)
  mutable legs : int;
  mutable cold_legs : int;
  mutable rpcs : int;
  mutable in_flight : int; (* frontend ops claimed on this ring *)
  mutable max_in_flight : int;
  mutable in_service : int; (* descriptors drained, not yet answered *)
  mutable notifications : int;
  mutable pending_notify : bool; (* signal collapsing: one interrupt pending *)
  mutable notify_seen : int; (* frontend: last counter value observed *)
  mutable stale_responses : int;
  mutable protocol_violations : int; (* responds on slots not in service *)
  mutable req_poll_pickups : int; (* request handoffs at polling cost *)
  mutable resp_poll_deliveries : int; (* response handoffs at polling cost *)
  (* A killed channel (driver-VM crash) never completes an exchange
     again: senders fail fast with EIO, blocked receivers are woken so
     they can observe the death instead of hanging forever. *)
  mutable dead : bool;
  (* A retired channel (planned handoff: upgrade/migration) is dead
     with different semantics at the sender: the transport is being
     replaced, not lost, so stragglers raise {!Retired} and the
     frontend parks them for replay on the successor pool instead of
     faulting the session. *)
  mutable retired : bool;
  mutable timeouts : int;
  mutable retries : int;
  tracer : Obs.Trace.t; (* from [Config.tracer]; disabled = no-op *)
  chan_uid : int; (* distinguishes this ring's counter series *)
  service_trace : int array; (* backend: trace id drained per slot *)
  mutable back_copy : bytes;
      (* backend: private copy of the descriptor being served, one per
         channel (its one worker serves the ring sequentially), made on
         the first drain *)
}

(* Channel ordinal for trace counter-series names ("ring3.occupancy").
   The backend passes a uid derived from the guest VM id and channel
   index, so the series names are deterministic per machine and two
   machines in different domains never share a counter.  Channels
   built without a uid (tests) draw from a domain-local fallback in a
   disjoint range. *)
let fallback_uids = Domain.DLS.new_key (fun () -> ref 1_000_000)

(* ---- ring layout ---- *)

let st_free = 0
let st_req_ready = 1
let st_in_service = 2
let st_resp_ready = 3
let st_delivered = 4
let state_off slot = 4 * slot
let notify_off = 512

(* Doorbell-suppression counter: the number of frontend waiters
   currently poll-watching for their response.  While it is non-zero
   the backend's [respond] skips the response interrupt and hands the
   completion over at polling cost instead (the frontend mirror of the
   backend's poll window). *)
let front_watch_off = 516
let slot_off slot = Memory.Addr.page_size + (slot * Proto.slot_size)

(* the control page holds up to 128 slot state words before notify_off *)
let max_slots = notify_off / 4

(* Dry polling a backend may spend per wakeup, in windows. *)
let poll_budget_windows = 10.

(* ---- live window switching ----
   An operator may move a channel between interrupts, hybrid and
   polling mid-stream.  A side already waiting finishes the wait it
   started; the next one follows the new window.  The backend gets a
   fresh dry-poll budget for it at once. *)

let set_poll_window t window =
  t.window <- window;
  t.poll_budget <- poll_budget_windows *. window;
  t.back_poll_budget_left <- t.poll_budget

let create ?uid engine ~config ~phys ~guest_vm ~driver_vm =
  let uid =
    match uid with
    | Some u -> u
    | None ->
        let r = Domain.DLS.get fallback_uids in
        incr r;
        !r
  in
  let slots = max 1 (min config.Config.ring_slots max_slots) in
  let slot_bytes = slots * Proto.slot_size in
  let pages =
    1 + ((slot_bytes + Memory.Addr.page_size - 1) / Memory.Addr.page_size)
  in
  let region = Hypervisor.Shared_page.allocate ~pages phys in
  let (_ : int) =
    Hypervisor.Shared_page.map_into region guest_vm ~perms:Memory.Perm.rw
  in
  let (_ : int) =
    Hypervisor.Shared_page.map_into region driver_vm ~perms:Memory.Perm.rw
  in
  let free_slots = Queue.create () in
  for i = 0 to slots - 1 do
    Queue.push i free_slots
  done;
  let t =
    {
      engine;
      config;
      region;
      front_view = Hypervisor.Shared_page.view_of region guest_vm;
      back_view = Hypervisor.Shared_page.view_of region driver_vm;
      slots;
      req_rx = Sim.Mailbox.create engine;
      resp_box = Array.init slots (fun _ -> Sim.Mailbox.create engine);
      notify_rx = Sim.Mailbox.create engine;
      slot_sem = Sim.Semaphore.create slots;
      free_slots;
      next_seq = 0;
      service_seq = Array.make slots 0;
      service_active = Array.make slots false;
      window = 0.; (* with the budget, by set_poll_window below *)
      back_active = false;
      back_polling = false;
      req_pending = false;
      resp_pending = false;
      poll_budget = 0.;
      back_poll_budget_left = 0.;
      front_last_wake = neg_infinity;
      back_last_wake = neg_infinity;
      scan_cursor = 0;
      legs = 0;
      cold_legs = 0;
      rpcs = 0;
      in_flight = 0;
      max_in_flight = 0;
      in_service = 0;
      notifications = 0;
      pending_notify = false;
      notify_seen = 0;
      stale_responses = 0;
      protocol_violations = 0;
      req_poll_pickups = 0;
      resp_poll_deliveries = 0;
      dead = false;
      retired = false;
      timeouts = 0;
      retries = 0;
      tracer = config.Config.tracer;
      chan_uid = uid;
      service_trace = Array.make slots 0;
      back_copy = Bytes.empty;
    }
  in
  (* the configured window applies like a live switch *)
  set_poll_window t config.Config.poll_window_us;
  t

let is_dead t = t.dead
let ring_slots t = t.slots

(** No operation in flight on either side of the ring. *)
let quiescent t = t.in_flight = 0 && t.in_service = 0

(** Dispatch weight for {!Chan_pool}: outstanding frontend operations,
    with a whole ring's worth of penalty while the backend worker is
    inside the driver (it may be blocked indefinitely in a read or
    poll, so new work should prefer a channel whose worker is free). *)
let load t = t.in_flight + (t.slots * Int.min t.in_service 1)

(** Declare the channel dead (driver-VM crash).  With [poison] (the
    default) every blocked party — each slot's response waiter, the
    backend worker waiting for a doorbell, the notification dispatcher
    — is woken exactly once so it can observe [dead] and bail out.
    Slot holders release their ring slots as they fail, which wakes
    any publisher blocked waiting for a free slot in turn.
    [poison:false] models a silent crash: nobody is woken and
    detection is left to RPC deadlines or the frontend watchdog. *)
let kill ?(poison = true) t =
  if not t.dead then begin
    t.dead <- true;
    if poison then begin
      Array.iter (fun box -> Sim.Mailbox.send box ()) t.resp_box;
      Sim.Mailbox.send t.req_rx ();
      Sim.Mailbox.send t.notify_rx ()
    end
  end

exception Retired

(** Retire the channel (planned handoff): poison-kill it, but mark the
    death as {e planned} so a sender still inside {!rpc} raises
    {!Retired} — "the transport moved, replay me there" — rather than
    EIO, which would fault the whole session. *)
let retire t =
  if not t.dead then begin
    t.retired <- true;
    kill t
  end

(* Deterministic fault sites (driven by [Config.injector]).  Keys are
   stable strings so tests and experiments can arm them by name; all
   of them act at doorbell-leg granularity — a dropped doorbell loses
   the interrupt, not the descriptor, so only a deadline recovers. *)
let site_drop_req = "chan.drop_req"
let site_drop_resp = "chan.drop_resp"
let site_corrupt_req = "chan.corrupt_req"
let site_delay_req = "chan.delay_req"

let fault_fires t key =
  match t.config.Config.injector with
  | None -> false
  | Some inj -> Sim.Fault_inject.fires inj ~key

(* A receiver inside a bounded poll window is awake by construction:
   a handoff to it pays no cold surcharge and has no doorbell a fault
   could drop.  Any other handoff is a full leg: the receiver is asleep
   behind an interrupt, or a dedicated poller (unbounded window) that
   may have gone cold. *)
let full_leg t ~polling = (not polling) || t.window = infinity

(* One handoff towards [receiver]: [polling_latency_us] if it is
   polling the ring, an [interrupt_latency_us] leg if it sleeps, plus
   that kind's cold surcharge when a full leg finds it idle.  [k] runs
   in engine context on arrival. *)
let handoff t ~receiver ~polling k =
  let now = Sim.Engine.now t.engine in
  let last =
    match receiver with `Front -> t.front_last_wake | `Back -> t.back_last_wake
  in
  let cold = full_leg t ~polling && now -. last > t.config.Config.cold_threshold_us in
  (match receiver with
  | `Front -> t.front_last_wake <- now
  | `Back -> t.back_last_wake <- now);
  if not polling then t.legs <- t.legs + 1;
  if cold then t.cold_legs <- t.cold_legs + 1;
  let c = t.config in
  let latency = if polling then c.Config.polling_latency_us else c.Config.interrupt_latency_us in
  if cold then
    let extra = if polling then c.Config.cold_extra_polling_us else c.Config.cold_extra_interrupt_us in
    Sim.Engine.at t.engine ~delay:(latency +. extra) k
  else
    (* the configured float itself: nothing to box on the hot path *)
    Sim.Engine.at t.engine ~delay:latency k

let marshal t = Sim.Engine.wait t.config.Config.marshal_us

let fail_dead t =
  if t.retired then raise Retired
  else Oskit.Errno.fail Oskit.Errno.EIO "channel dead: driver VM down"

(* Tracing helpers.  Every one is a no-op behind a single boolean when
   the sink is disabled; none of them waits, so simulated time is
   untouched.  Counters are registry-wide; spans attach to the
   operation's trace id (0 = untraced, e.g. the watchdog heartbeat). *)
let traced t = Obs.Trace.enabled t.tracer
let m_incr t name = if traced t then Obs.Metrics.incr (Obs.Trace.metrics t.tracer) name

let occupancy_sample t =
  if traced t then begin
    let occ = float_of_int (t.slots - Queue.length t.free_slots) in
    Obs.Trace.counter t.tracer ~lane:Obs.Trace.Ring
      ~name:(Printf.sprintf "ring%d.occupancy" t.chan_uid)
      occ;
    Obs.Metrics.observe (Obs.Trace.metrics t.tracer) "ring.occupancy" occ
  end

(* Request doorbell, with the injected transport faults applied.  The
   delay fault stalls the publish path; the drop fault loses a full
   leg (evaluated only when one would actually be sent — a coalesced
   publish or a pickup inside a bounded window has no doorbell to
   lose).  A backend inside its poll window takes the descriptor at
   polling cost, a sleeping one needs an interrupt.  A suppressed
   doorbell is the coalescing win: the backend is either draining (it
   will see the descriptor on its next head re-scan) or already has a
   handoff in flight that covers every descriptor marked since. *)
let ring_req_doorbell t ~trace =
  if fault_fires t site_delay_req then
    Sim.Engine.wait t.config.Config.fault_delay_us;
  let polling = t.back_polling in
  if polling then m_incr t "doorbell.req_suppressed";
  if (polling || not t.back_active) && not t.req_pending then begin
    if full_leg t ~polling && fault_fires t site_drop_req then
      m_incr t "fault.doorbell_dropped"
    else begin
      t.req_pending <- true;
      if polling then t.req_poll_pickups <- t.req_poll_pickups + 1
      else m_incr t "doorbell.req_legs";
      let sp =
        Obs.Trace.span_begin t.tracer ~trace ~lane:Obs.Trace.Transport
          ~cat:"stage" ~name:(if polling then "doorbell:req_poll" else "doorbell:req") ()
      in
      handoff t ~receiver:`Back ~polling (fun () ->
          t.req_pending <- false;
          t.back_active <- true;
          Obs.Trace.span_end t.tracer sp;
          Sim.Mailbox.send t.req_rx ())
    end
  end
  else if not polling then m_incr t "doorbell.req_coalesced"

(* Publish one request descriptor: marshal, stamp the attempt's
   sequence number, write the slot, mark it ready, ring.  Corruption
   garbles the opcode byte in the shared slot (the backend must
   reject, not crash); the sequence number is stamped first, so even a
   corrupt descriptor's rejection pairs with its attempt.  [encode]
   fills the domain's scratch descriptor after the marshal wait, and
   nothing waits between that fill and the slot write. *)
let publish t ~slot ~seq ~trace encode =
  let sp =
    Obs.Trace.span_begin t.tracer ~trace ~lane:Obs.Trace.Frontend ~cat:"stage"
      ~name:"front:publish" ()
  in
  marshal t;
  let wire = Proto.scratch () in
  encode wire;
  Proto.set_seq wire seq;
  if fault_fires t site_corrupt_req then
    Bytes.set wire 0 (Char.chr (Char.code (Bytes.get wire 0) lxor 0xff));
  Hypervisor.Shared_page.write t.front_view ~offset:(slot_off slot) wire;
  Hypervisor.Shared_page.write_u32 t.front_view ~offset:(state_off slot)
    st_req_ready;
  ring_req_doorbell t ~trace;
  Obs.Trace.span_end t.tracer sp

(* Deliver the response-ready slots from [first] on, in slot order. *)
let rec deliver_from t first =
  let slot =
    Hypervisor.Shared_page.find_u32 t.front_view ~offset:(state_off 0) ~stride:4
      ~count:t.slots ~start:first ~n:(t.slots - first) ~value:st_resp_ready
  in
  if slot >= 0 then begin
    Hypervisor.Shared_page.write_u32 t.front_view ~offset:(state_off slot) st_delivered;
    Sim.Mailbox.send t.resp_box.(slot) ();
    if slot + 1 < t.slots then deliver_from t (slot + 1)
  end

(* Response handoff arrival: deliver every response published since
   the handoff was raised (engine context: page reads and mailbox
   sends only, no waits). *)
let deliver_responses t =
  t.resp_pending <- false;
  if not t.dead then deliver_from t 0

let fresh_seq t =
  t.next_seq <- t.next_seq + 1;
  t.next_seq

(* One token from [box] within [timeout].  An unbounded wait blocks
   on the mailbox and schedules no timer: a timer at [infinity] would
   be popped by moving the clock there once the run drains. *)
let recv_within box ~timeout =
  if timeout = infinity then begin
    Sim.Mailbox.recv box;
    Some ()
  end
  else Sim.Mailbox.recv_timeout box ~timeout

(* Sleep for a response token under the RPC deadline (0 = none). *)
let block box ~deadline =
  if deadline > 0. then Sim.Mailbox.recv_timeout box ~timeout:deadline
  else recv_within box ~timeout:infinity

(* Frontend mirror of the backend's window: poll-watch the response
   for up to [timeout] before sleeping behind the response doorbell.
   While the watch counter in the control page is non-zero, [respond]
   skips the interrupt and hands completions over at polling cost. *)
let unwatch t =
  let v = Hypervisor.Shared_page.read_u32 t.front_view ~offset:front_watch_off in
  Hypervisor.Shared_page.write_u32 t.front_view ~offset:front_watch_off (Int.max 0 (v - 1))

let watch t box ~timeout =
  let v = Hypervisor.Shared_page.read_u32 t.front_view ~offset:front_watch_off in
  Hypervisor.Shared_page.write_u32 t.front_view ~offset:front_watch_off (v + 1);
  match recv_within box ~timeout with
  | got ->
      unwatch t;
      got
  | exception e ->
      unwatch t;
      raise e

(* The exchange's retry loop, on a claimed [slot].  Plain recursive
   functions rather than local closures: nothing per attempt is
   allocated for an in-flight op to hold across its waits. *)
let rec attempt t ~slot ~deadline ~trace ~encode ~decode tries_left =
  let seq = fresh_seq t in
  publish t ~slot ~seq ~trace encode;
  if t.dead then fail_dead t;
  await t ~slot ~seq ~deadline ~trace ~encode ~decode tries_left

and await t ~slot ~seq ~deadline ~trace ~encode ~decode tries_left =
  let box = t.resp_box.(slot) in
  let window = t.window in
  let got =
    if window > 0. && not t.dead then begin
      let timeout = if deadline > 0. then Float.min window deadline else window in
      match watch t box ~timeout with
      | Some () as watched -> watched
      | None ->
          (* a bounded window ran dry: re-arm the response doorbell and
             sleep (the full deadline still applies — a dry watch
             window is polling time, not RPC time).  An unbounded
             watch was the whole wait. *)
          if window = infinity || t.dead then None else block box ~deadline
    end
    else block box ~deadline
  in
  if t.dead then fail_dead t;
  match got with
  | Some () ->
      let wake = Sim.Engine.now t.engine in
      marshal t;
      (* read into the domain's scratch descriptor and decode it before
         anything can wait: the caller gets [decode]'s result, never
         the shared buffer *)
      let resp = Proto.scratch () in
      Hypervisor.Shared_page.read_into t.front_view ~offset:(slot_off slot)
        ~len:Proto.slot_size ~dst:resp ~dst_off:0;
      if Proto.get_seq resp = seq then begin
        Obs.Trace.add_complete t.tracer ~trace ~lane:Obs.Trace.Frontend ~cat:"stage"
          ~name:"front:complete" ~start:wake ();
        decode resp
      end
      else begin
        (* a late answer to a timed-out earlier attempt: it clobbered
           our live request, so discard it and republish the same
           attempt *)
        t.stale_responses <- t.stale_responses + 1;
        m_incr t "rpc.stale_responses";
        publish t ~slot ~seq ~trace encode;
        if t.dead then fail_dead t;
        await t ~slot ~seq ~deadline ~trace ~encode ~decode tries_left
      end
  | None ->
      t.timeouts <- t.timeouts + 1;
      m_incr t "rpc.timeouts";
      if tries_left > 0 then begin
        t.retries <- t.retries + 1;
        m_incr t "rpc.retries";
        attempt t ~slot ~deadline ~trace ~encode ~decode (tries_left - 1)
      end
      else Oskit.Errno.fail Oskit.Errno.ETIMEDOUT "rpc deadline exceeded after retries"

let release_slot t slot ring_sp =
  if not t.dead then
    Hypervisor.Shared_page.write_u32 t.front_view ~offset:(state_off slot) st_free;
  Queue.push slot t.free_slots;
  Obs.Trace.span_end t.tracer ring_sp;
  occupancy_sample t;
  Sim.Semaphore.release t.slot_sem

(* Claim a ring slot, run the exchange on it, free it however the
   exchange ends. *)
let exchange ?timeout_us t ~trace ~encode ~decode =
  let wait_sp =
    Obs.Trace.span_begin t.tracer ~trace ~lane:Obs.Trace.Frontend ~cat:"stage"
      ~name:"front:slot_wait" ()
  in
  Sim.Semaphore.acquire t.slot_sem;
  if t.dead then begin
    Sim.Semaphore.release t.slot_sem;
    Obs.Trace.span_end ~status:"error:dead" t.tracer wait_sp;
    fail_dead t
  end;
  let slot = Queue.pop t.free_slots in
  Obs.Trace.span_arg wait_sp "slot" (float_of_int slot);
  Obs.Trace.span_end t.tracer wait_sp;
  occupancy_sample t;
  let ring_sp =
    Obs.Trace.span_begin t.tracer ~trace ~lane:Obs.Trace.Ring ~cat:"ring"
      ~name:
        (if Obs.Trace.recording t.tracer ~trace then Printf.sprintf "slot%d" slot else "")
      ()
  in
  let box = t.resp_box.(slot) in
  (* drop stale wakeups a timed-out previous occupant left behind:
     correctness comes from sequence pairing, but a buffered token
     would cost a pointless spurious wake *)
  while not (Sim.Mailbox.is_empty box) do
    ignore (Sim.Mailbox.recv box)
  done;
  let deadline =
    match timeout_us with Some d -> d | None -> t.config.Config.rpc_timeout_us
  in
  match
    attempt t ~slot ~deadline ~trace ~encode ~decode (Int.max 0 t.config.Config.rpc_retries)
  with
  | r ->
      release_slot t slot ring_sp;
      r
  | exception e ->
      release_slot t slot ring_sp;
      raise e

(** Frontend: one request/response exchange over a ring slot.  Blocks
    while the ring is full; up to [Config.ring_slots] callers may be
    inside concurrently.

    With a deadline ([timeout_us] override, else [Config.rpc_timeout_us];
    0 = wait forever) an unanswered request is {e resent} up to
    [Config.rpc_retries] times — with a fresh sequence number — before
    the exchange fails with ETIMEDOUT.  Retries give at-least-once
    semantics: a request whose response (rather than the request
    itself) was lost executes twice, so callers must only retry
    idempotent operations — which is why deadlines are opt-in.  A
    response carrying a stale sequence number (the late answer of a
    timed-out attempt) is discarded and the live attempt republished.
    A channel killed mid-exchange fails with EIO instead: the
    transport itself is gone.

    No descriptor outlives a step of the exchange: [encode] fills the
    domain's scratch descriptor right before each publish (a resend
    calls it again), and the response is read into that scratch and
    handed to [decode] before anything waits; [rpc] returns [decode]'s
    result. *)
let rpc ?timeout_us t ~trace ~encode ~decode =
  if t.dead then fail_dead t;
  t.rpcs <- t.rpcs + 1;
  t.in_flight <- t.in_flight + 1;
  if t.in_flight > t.max_in_flight then t.max_in_flight <- t.in_flight;
  match exchange ?timeout_us t ~trace ~encode ~decode with
  | r ->
      t.in_flight <- t.in_flight - 1;
      r
  | exception e ->
      t.in_flight <- t.in_flight - 1;
      raise e

(** Hostile-frontend injection (adversarial tests): write [bytes]
    straight into ring slot [slot] and mark it request-ready, bypassing
    the RPC state machine entirely — exactly what a compromised guest
    kernel with the shared region mapped writable can do.  No sequence
    pairing, no slot accounting; whatever response the backend
    publishes into the slot is simply left unread (and a later
    injection into the same slot clobbers it, as on real hardware). *)
let inject_raw t ~slot (bytes : bytes) =
  if slot < 0 || slot >= t.slots then invalid_arg "Channel.inject_raw";
  if not t.dead then begin
    let wire = Proto.scratch () in
    Proto.encoded bytes wire;
    Hypervisor.Shared_page.write t.front_view ~offset:(slot_off slot) wire;
    Hypervisor.Shared_page.write_u32 t.front_view ~offset:(state_off slot)
      st_req_ready;
    ring_req_doorbell t ~trace:0
  end

(* First request-ready slot from the fairness cursor on, or -1. *)
let scan_ready t =
  Hypervisor.Shared_page.find_u32 t.back_view ~offset:(state_off 0) ~stride:4 ~count:t.slots
    ~start:t.scan_cursor ~n:t.slots ~value:st_req_ready

(* The drain loop, as top-level functions so that a worker parked
   waiting for work holds no closures. *)
let rec drain t =
  (* the drain span measures the scan-and-claim work itself, so its
     start is stamped at the point the scan actually begins — not at
     function entry, and never inside a poll window's wait,
     which would inflate drain spans under load *)
  let start = Sim.Engine.now t.engine in
  let slot = scan_ready t in
  if slot >= 0 then begin
    t.scan_cursor <- (slot + 1) mod t.slots;
    Hypervisor.Shared_page.write_u32 t.back_view ~offset:(state_off slot) st_in_service;
    t.service_active.(slot) <- true;
    t.in_service <- t.in_service + 1;
    marshal t;
    if Bytes.length t.back_copy = 0 then t.back_copy <- Bytes.create Proto.slot_size;
    let bytes = t.back_copy in
    Hypervisor.Shared_page.read_into t.back_view ~offset:(slot_off slot) ~len:Proto.slot_size
      ~dst:bytes ~dst_off:0;
    t.service_seq.(slot) <- Proto.get_seq bytes;
    let trace = Proto.get_trace bytes in
    t.service_trace.(slot) <- trace;
    (* the drain's trace id is only known once the descriptor is read,
       so the span is recorded after the fact *)
    Obs.Trace.add_complete t.tracer ~trace ~lane:Obs.Trace.Backend ~cat:"stage"
      ~name:"back:drain" ~start ();
    Some (slot, bytes)
  end
  else if t.back_poll_budget_left > 0. then begin
    (* the ring just went dry, but more work may be a microsecond
       away.  Stay awake inside the poll window — publishes hand over
       at polling cost instead of raising an interrupt — and only
       re-arm doorbells once a whole window passes with nothing
       arriving (or the wakeup's dry-poll budget runs out).  An
       unbounded window never runs dry. *)
    let window = Float.min t.window t.back_poll_budget_left in
    t.back_polling <- true;
    m_incr t "poll.windows";
    let t0 = Sim.Engine.now t.engine in
    let got = recv_within t.req_rx ~timeout:window in
    t.back_polling <- false;
    t.back_poll_budget_left <- t.back_poll_budget_left -. (Sim.Engine.now t.engine -. t0);
    match got with
    | Some () -> if t.dead then None else drain t
    | None -> if t.dead then None else sleep t
  end
  else sleep t

and sleep t =
  (* ring drained (and any poll window dry): go back to sleep.  No
     wakeup can be lost — there is no suspension point between the
     empty scan, clearing [back_active] and blocking, so any publish
     after this point sees [back_active = false] and sends a doorbell;
     a poll pickup scheduled during the final window is still in
     flight and lands in the mailbox. *)
  t.back_active <- false;
  let () = Sim.Mailbox.recv t.req_rx in
  (* a real doorbell wakeup starts a fresh dry-poll budget *)
  t.back_poll_budget_left <- t.poll_budget;
  if t.dead then None else drain t

(** Backend: block until a descriptor is ready and claim it; [None]
    once the channel is dead (the worker should exit).  One wakeup
    drains many: after serving, the worker's next call re-scans the
    ring head and picks up everything published meanwhile without any
    further interrupt.

    The descriptor is copied out of the shared slot into the channel's
    private buffer, so a guest rewriting its slot mid-service cannot
    change what the driver sees (no double fetch).  The buffer is
    reused by the next call: the worker is done with it by then. *)
let next_request t : (int * bytes) option = if t.dead then None else drain t

(** Backend: complete the descriptor claimed from slot [slot] with
    [resp], echoing the sequence number it was drained with.  The
    response interrupt coalesces: if one is already in flight it covers
    this response too.  Dropped silently on a dead channel (a crashed
    driver VM answers nobody); the response-drop fault loses the
    interrupt leg (the descriptor stays ready and would ride a later
    response's leg — or the frontend deadline recovers). *)
let respond t ~slot (resp : Proto.response) =
  if not t.dead then begin
    if slot < 0 || slot >= t.slots then invalid_arg "Channel.respond";
    (* A respond must pair with an outstanding claim on the slot.  The
       authority is the backend-private [service_active] flag — not the
       control-page state word, which the guest has mapped writable
       (and which legitimately reads [st_req_ready] again when a
       timed-out frontend republished its resend into the slot).  A
       respond with no outstanding claim — a double-complete or a slot
       never claimed — is a protocol violation: it used to be masked by
       clamping the in-service count at zero; now it is counted and
       surfaced as EIO so the caller can score the guest instead of
       silently corrupting ring accounting. *)
    if not t.service_active.(slot) then begin
      t.protocol_violations <- t.protocol_violations + 1;
      m_incr t "containment.respond_violation";
      Oskit.Errno.fail Oskit.Errno.EIO "respond: slot not in service"
    end;
    t.service_active.(slot) <- false;
    let trace = t.service_trace.(slot) in
    let sp =
      Obs.Trace.span_begin t.tracer ~trace ~lane:Obs.Trace.Backend ~cat:"stage"
        ~name:"back:respond" ()
    in
    marshal t;
    (* encoded after the marshal wait into the domain's scratch, then
       stamped and written with no wait in between *)
    let wire = Proto.scratch () in
    Proto.encode_response_into wire resp;
    Proto.set_seq wire t.service_seq.(slot);
    Proto.set_trace wire trace;
    Hypervisor.Shared_page.write t.back_view ~offset:(slot_off slot) wire;
    Hypervisor.Shared_page.write_u32 t.back_view ~offset:(state_off slot)
      st_resp_ready;
    t.in_service <- t.in_service - 1;
    Obs.Trace.span_end t.tracer sp;
    (* a waiter poll-watching its response, or any frontend under an
       unbounded window, takes the completion at polling cost.  One
       handoff in flight sweeps every response marked ready since. *)
    let watched = Hypervisor.Shared_page.read_u32 t.back_view ~offset:front_watch_off > 0 in
    let polling = watched || t.window = infinity in
    if polling then m_incr t "doorbell.resp_suppressed";
    if not t.resp_pending then begin
      if full_leg t ~polling && fault_fires t site_drop_resp then
        m_incr t "fault.doorbell_dropped"
      else begin
        t.resp_pending <- true;
        if polling then t.resp_poll_deliveries <- t.resp_poll_deliveries + 1
        else m_incr t "doorbell.resp_legs";
        let db_sp =
          Obs.Trace.span_begin t.tracer ~trace ~lane:Obs.Trace.Transport ~cat:"stage"
            ~name:(if polling then "doorbell:resp_poll" else "doorbell:resp") ()
        in
        handoff t ~receiver:`Front ~polling (fun () ->
            Obs.Trace.span_end t.tracer db_sp;
            deliver_responses t)
      end
    end
    else if not polling then m_incr t "doorbell.resp_coalesced"
  end

(** Backend: asynchronous notification towards the frontend (§5.1's
    "message to the frontend, e.g., when the keyboard is pressed").
    Runs in callback context (no waits): marshal cost is folded into
    the leg.  The notification dispatcher does not poll-watch, so it
    polls only under an unbounded window. *)
let notify_mask = 0xffff_ffff

let notify t =
  if not t.dead then begin
    t.notifications <- t.notifications + 1;
    let counter =
      Hypervisor.Shared_page.read_u32 t.back_view ~offset:notify_off
    in
    (* the notify word is a u32 on the wire: wrap explicitly instead of
       letting the OCaml int grow past what the shared page models *)
    Hypervisor.Shared_page.write_u32 t.back_view ~offset:notify_off
      ((counter + 1) land notify_mask);
    (* Signals collapse: while a notification interrupt is pending, new
       events only bump the counter (like SIGIO, §2.1). *)
    if not t.pending_notify then begin
      t.pending_notify <- true;
      m_incr t "notify.legs";
      handoff t ~receiver:`Front ~polling:(t.window = infinity) (fun () ->
          Sim.Mailbox.send t.notify_rx ())
    end
    else m_incr t "notify.collapsed"
  end

(** Test hook: preset the raw notification counter (e.g. just below the
    u32 boundary) as if that many notifications had already been
    observed, so wrap behaviour can be exercised directly. *)
let preset_notify_counter t v =
  let v = v land notify_mask in
  Hypervisor.Shared_page.write_u32 t.back_view ~offset:notify_off v;
  t.notify_seen <- v

(** Frontend: block for the next notification; [None] once the channel
    is dead (the dispatcher should exit).  Returns the number of
    notifications raised since the last observation — the wrap-safe
    delta of the shared u32 counter, not its raw value. *)
let next_notification t =
  if t.dead then None
  else
    let () = Sim.Mailbox.recv t.notify_rx in
    if t.dead then None
    else begin
      t.pending_notify <- false;
      let counter =
        Hypervisor.Shared_page.read_u32 t.front_view ~offset:notify_off
      in
      let delta = (counter - t.notify_seen) land notify_mask in
      t.notify_seen <- counter;
      Some delta
    end

type stats = {
  legs : int;
  cold_legs : int;
  rpcs : int;
  max_in_flight : int;
  notifications : int;
  timeouts : int;
  retries : int;
  stale_responses : int;
  protocol_violations : int;
  req_poll_pickups : int;
  resp_poll_deliveries : int;
}

let stats (t : t) : stats =
  {
    legs = t.legs;
    cold_legs = t.cold_legs;
    rpcs = t.rpcs;
    max_in_flight = t.max_in_flight;
    notifications = t.notifications;
    timeouts = t.timeouts;
    retries = t.retries;
    stale_responses = t.stale_responses;
    protocol_violations = t.protocol_violations;
    req_poll_pickups = t.req_poll_pickups;
    resp_poll_deliveries = t.resp_poll_deliveries;
  }
