(** Deterministic discrete-event simulation engine.

    Simulated activities ("processes") are written in direct style and
    suspended/resumed with OCaml 5 effect handlers, SimPy-style: a
    process calls {!wait} to let simulated time pass or {!suspend} to
    block until some other process wakes it.  Events run in
    [(time, sequence)] order, so execution is fully deterministic.

    Invariants that the implementation must maintain:
    - every captured continuation is resumed exactly once;
    - a waker never runs the continuation inline: it enqueues an event
      at the current time, so wake-ups cannot reorder the caller's own
      execution;
    - [now] never decreases. *)

(* An event is data, not a closure: a plain callback, a timer, a
   process to start, or a suspended process to resume.  Queueing a
   constructor allocates less than a closure over the continuation,
   and tells the run loop when a process is running.  A timer's
   callback returns [false] when it found its waiter already woken:
   the engine counts such dead pops. *)
type event =
  | Call of (unit -> unit)
  | Timer of (unit -> bool)
  | Spawn of (unit -> unit)
  | Resume of (unit, unit) Effect.Deep.continuation
  | Resume_with of (Obj.t, unit) Effect.Deep.continuation * Obj.t

type t = {
  mutable now : float;
  mutable seq : int; (* tie-break among [future] events *)
  future : event Heap.t; (* events after [now] *)
  (* Events at [now], in scheduling order: a ring buffer of
     power-of-two capacity, [ready_len] events from [ready_head]. *)
  mutable ready : event array;
  mutable ready_head : int;
  mutable ready_len : int;
  mutable live_processes : int;
  mutable spawned : int;
  mutable limit : float; (* the current [run]'s [until] *)
  mutable in_process : bool; (* a [Spawn] or [Resume] event is running *)
  mutable dead_timers : int; (* timers popped after their waiter woke *)
}

(* Two tiers, one order.  An event due at [now] (a spawn, a waker,
   [wait 0], or a delay that rounds away against [now]) is appended to
   [ready]; only a strictly later event enters the heap.  The run loop
   takes heap events due at [now] first, then [ready], and only then
   advances the clock.  That is exactly [(time, seq)] order: [ready]
   holds only events scheduled while the clock read [now], so a heap
   event due at [now] — scheduled while the clock was still earlier —
   precedes every one of them. *)

type _ Effect.t +=
  | Wait : float -> unit Effect.t
  | Suspend : ((Obj.t -> unit) -> unit) -> Obj.t Effect.t

(* The [Suspend] payload is monomorphised through [Obj.t] because an
   effect declaration cannot be polymorphic in its result while still
   being matched generically in one handler.  The [suspend] wrapper
   below re-establishes type safety: the value passed to the waker is
   the value returned by [suspend], with no other reader. *)

exception Deadlock of string

let nop = Call ignore

let push_ready t ev =
  let cap = Array.length t.ready in
  if t.ready_len = cap then begin
    let bigger = Array.make (2 * cap) nop in
    for i = 0 to cap - 1 do
      bigger.(i) <- t.ready.((t.ready_head + i) land (cap - 1))
    done;
    t.ready <- bigger;
    t.ready_head <- 0
  end;
  t.ready.((t.ready_head + t.ready_len) land (Array.length t.ready - 1)) <- ev;
  t.ready_len <- t.ready_len + 1

(* The popped slot is cleared: an event may hold a continuation and
   must not outlive its run. *)
let pop_ready t =
  let ev = t.ready.(t.ready_head) in
  t.ready.(t.ready_head) <- nop;
  t.ready_head <- (t.ready_head + 1) land (Array.length t.ready - 1);
  t.ready_len <- t.ready_len - 1;
  ev

let push_future t ~time ev =
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.push t.future ~time ~seq ev

let schedule t ~time ev =
  if time = t.now then push_ready t ev else ignore (push_future t ~time ev : Heap.handle)

let process_handler t =
  let open Effect.Deep in
  {
    retc = (fun () -> t.live_processes <- t.live_processes - 1);
    exnc = (fun exn -> t.live_processes <- t.live_processes - 1; raise exn);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Wait delay ->
            Some
              (fun (k : (a, unit) continuation) ->
                if delay < 0. then
                  discontinue k (Invalid_argument "Engine.wait: negative delay")
                else schedule t ~time:(t.now +. delay) (Resume k))
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                let resumed = ref false in
                let waker v =
                  if not !resumed then begin
                    resumed := true;
                    push_ready t (Resume_with (k, v))
                  end
                in
                register waker)
        | _ -> None);
  }

let create () =
  {
    now = 0.;
    seq = 0;
    future = Heap.create ~dummy:nop;
    ready = Array.make 16 nop;
    ready_head = 0;
    ready_len = 0;
    live_processes = 0;
    spawned = 0;
    limit = infinity;
    in_process = false;
    dead_timers = 0;
  }

let now t = t.now

(** Schedule a plain callback [delay] after the current time.  Usable
    from inside or outside processes; the callback runs in engine
    context (it may spawn processes or wake suspended ones but must not
    itself call [wait]). *)
let at t ~delay f =
  if delay < 0. then invalid_arg "Engine.at: negative delay";
  schedule t ~time:(t.now +. delay) (Call f)

let spawn t ?name f =
  ignore name;
  t.live_processes <- t.live_processes + 1;
  t.spawned <- t.spawned + 1;
  (* Processes start at the current time, not immediately: spawning
     never preempts the spawner. *)
  push_ready t (Spawn f)

let run_event t = function
  | Call f -> f ()
  | Timer f -> if not (f ()) then t.dead_timers <- t.dead_timers + 1
  | Spawn f ->
      t.in_process <- true;
      Effect.Deep.match_with f () (process_handler t);
      t.in_process <- false
  | Resume k ->
      t.in_process <- true;
      Effect.Deep.continue k ();
      t.in_process <- false
  | Resume_with (k, v) ->
      t.in_process <- true;
      Effect.Deep.continue k v;
      t.in_process <- false

let rec loop t =
  let future_due = (not (Heap.is_empty t.future)) && Heap.min_time t.future <= t.now in
  if future_due || t.ready_len > 0 then begin
    if t.now > t.limit then begin
      (* the clock is set back to [limit]: keep the events due now
         ordered after any already in the heap *)
      while t.ready_len > 0 do
        ignore (push_future t ~time:t.now (pop_ready t) : Heap.handle)
      done;
      t.now <- t.limit
    end
    else begin
      run_event t (if future_due then Heap.pop t.future else pop_ready t);
      loop t
    end
  end
  else if not (Heap.is_empty t.future) then begin
    let time = Heap.min_time t.future in
    if time > t.limit then t.now <- t.limit
    else begin
      if time > t.now then t.now <- time;
      run_event t (Heap.pop t.future);
      loop t
    end
  end

(* The engine whose [run] is executing on this domain, for {!wait}'s
   bypass; fleet shards run engines on several domains at once.  The
   initial value is never run, so its [in_process] stays false. *)
let running = Domain.DLS.new_key create

(** Run until the event queue drains, or until [until] if given (events
    scheduled later stay in the queue and [now] stops at [until]). *)
let run ?until t =
  let outer = Domain.DLS.get running and outer_limit = t.limit in
  let restore () =
    t.in_process <- false;
    t.limit <- outer_limit;
    Domain.DLS.set running outer
  in
  t.limit <- (match until with Some l -> l | None -> infinity);
  Domain.DLS.set running t;
  match loop t with
  | () -> restore ()
  | exception e ->
      restore ();
      raise e

(** True when processes are still alive but no event can ever wake
    them: the classic lost-wakeup deadlock.  Exposed for tests. *)
let deadlocked t = Heap.is_empty t.future && t.ready_len = 0 && t.live_processes > 0

let live_processes t = t.live_processes
let spawned t = t.spawned
let dead_timers t = t.dead_timers

(* ------------------------------------------------------------------ *)
(* Cancellable timers                                                  *)
(* ------------------------------------------------------------------ *)

(* A timer is an ordinary event with a heap handle.  Cancelling it
   takes it out of the heap; its sequence number stays used, so every
   other event keeps its [(time, seq)] key and runs exactly when it
   would have had the dead timer popped and done nothing.  A timer due
   at [now] goes to the ready ring, which has no handles: it cannot be
   cancelled and fires, finding its waiter gone. *)
type timer = Heap.handle

let no_timer = Heap.no_handle

let timer t ~delay f =
  if delay < 0. then invalid_arg "Engine.timer: negative delay";
  let time = t.now +. delay in
  if time = t.now then begin
    push_ready t (Timer f);
    no_timer
  end
  else push_future t ~time (Timer f)

let cancel t timer = Heap.remove t.future timer

(* ------------------------------------------------------------------ *)
(* Operations usable inside a process                                  *)
(* ------------------------------------------------------------------ *)

(* [wait] skips the scheduler when the waiter's own event would be the
   next one run: nothing is ready, no queued event is due by
   [now +. delay], and the current [run] may reach that time.  Then
   queueing the event and popping it again would only advance the
   clock, so the bypass does just that.  Outside a process
   ([in_process] false), it always performs, so a [wait] in an {!at}
   callback still raises [Effect.Unhandled]. *)
let wait (delay : float) : unit =
  let t = Domain.DLS.get running in
  let time = t.now +. delay in
  if
    t.in_process && delay >= 0. && t.ready_len = 0 && time <= t.limit
    && (Heap.is_empty t.future || Heap.min_time t.future > time)
  then t.now <- time
  else Effect.perform (Wait delay)

let yield () = wait 0.

(** [suspend register] blocks the calling process.  [register] receives
    a one-shot [waker]; calling [waker v] (from any other process or
    callback) schedules the blocked process to resume at the then
    current time with value [v].  Extra waker calls are ignored. *)
let suspend (register : ('a -> unit) -> unit) : 'a =
  let register_obj (waker : Obj.t -> unit) =
    register (fun (v : 'a) -> waker (Obj.repr v))
  in
  Obj.obj (Effect.perform (Suspend register_obj))

(* The state of a [suspend_timeout] race once either side has won;
   before that it holds the armed timer. *)
let decided = -2

(** [suspend_timeout t ~timeout register] is [Some v] if a waker fires
    before [timeout] elapses, [None] otherwise.  The loser of the race
    is disarmed: a waker that wins cancels the timer. *)
let suspend_timeout t ~timeout (register : ('a option -> unit) -> unit) :
    'a option =
  suspend (fun waker ->
      let race = ref no_timer in
      register (fun v ->
          let armed = !race in
          if armed <> decided then begin
            race := decided;
            cancel t armed;
            waker v
          end);
      if !race <> decided then
        race :=
          timer t ~delay:timeout (fun () ->
              !race <> decided
              && begin
                   race := decided;
                   waker None;
                   true
                 end))
