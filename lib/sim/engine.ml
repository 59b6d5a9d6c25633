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

type t = {
  mutable now : float;
  mutable seq : int; (* tie-break among [future] events *)
  future : (unit -> unit) Heap.t; (* events after [now] *)
  (* Events at [now], in scheduling order: a ring buffer of
     power-of-two capacity, [ready_len] events from [ready_head]. *)
  mutable ready : (unit -> unit) array;
  mutable ready_head : int;
  mutable ready_len : int;
  mutable live_processes : int;
  mutable spawned : int;
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

let nop () = ()

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
  }

let now t = t.now

let push_ready t f =
  let cap = Array.length t.ready in
  if t.ready_len = cap then begin
    let bigger = Array.make (2 * cap) nop in
    for i = 0 to cap - 1 do
      bigger.(i) <- t.ready.((t.ready_head + i) land (cap - 1))
    done;
    t.ready <- bigger;
    t.ready_head <- 0
  end;
  t.ready.((t.ready_head + t.ready_len) land (Array.length t.ready - 1)) <- f;
  t.ready_len <- t.ready_len + 1

(* The popped slot is cleared: a closure captures a continuation and
   must not outlive its run. *)
let pop_ready t =
  let f = t.ready.(t.ready_head) in
  t.ready.(t.ready_head) <- nop;
  t.ready_head <- (t.ready_head + 1) land (Array.length t.ready - 1);
  t.ready_len <- t.ready_len - 1;
  f

let push_future t ~time f =
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.push t.future ~time ~seq f

let schedule t ~time f = if time = t.now then push_ready t f else push_future t ~time f

(** Schedule a plain callback [delay] after the current time.  Usable
    from inside or outside processes; the callback runs in engine
    context (it may spawn processes or wake suspended ones but must not
    itself call [wait]). *)
let at t ~delay f =
  if delay < 0. then invalid_arg "Engine.at: negative delay";
  schedule t ~time:(t.now +. delay) f

let effective_handler t =
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
                else schedule t ~time:(t.now +. delay) (fun () -> continue k ()))
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                let resumed = ref false in
                let waker v =
                  if not !resumed then begin
                    resumed := true;
                    push_ready t (fun () -> continue k v)
                  end
                in
                register waker)
        | _ -> None);
  }

let spawn t ?name f =
  ignore name;
  t.live_processes <- t.live_processes + 1;
  t.spawned <- t.spawned + 1;
  (* Processes start at the current time, not immediately: spawning
     never preempts the spawner. *)
  push_ready t (fun () -> Effect.Deep.match_with f () (effective_handler t))

(** Run until the event queue drains, or until [until] if given (events
    scheduled later stay in the queue and [now] stops at [until]). *)
let run ?until t =
  let limit = match until with Some l -> l | None -> infinity in
  let continue_loop = ref true in
  while !continue_loop do
    let future_due =
      (not (Heap.is_empty t.future)) && Heap.min_time t.future <= t.now
    in
    if future_due || t.ready_len > 0 then begin
      if t.now > limit then begin
        (* the clock is set back to [limit]: keep the events due now
           ordered after any already in the heap *)
        while t.ready_len > 0 do
          push_future t ~time:t.now (pop_ready t)
        done;
        t.now <- limit;
        continue_loop := false
      end
      else if future_due then (Heap.pop t.future) ()
      else (pop_ready t) ()
    end
    else if Heap.is_empty t.future then continue_loop := false
    else begin
      let time = Heap.min_time t.future in
      if time > limit then begin
        t.now <- limit;
        continue_loop := false
      end
      else begin
        if time > t.now then t.now <- time;
        (Heap.pop t.future) ()
      end
    end
  done

(** True when processes are still alive but no event can ever wake
    them: the classic lost-wakeup deadlock.  Exposed for tests. *)
let deadlocked t = Heap.is_empty t.future && t.ready_len = 0 && t.live_processes > 0

let live_processes t = t.live_processes
let spawned t = t.spawned

(* ------------------------------------------------------------------ *)
(* Operations usable inside a process                                  *)
(* ------------------------------------------------------------------ *)

let wait (delay : float) : unit = Effect.perform (Wait delay)

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

(** [suspend_timeout t ~timeout register] is [Some v] if a waker fires
    before [timeout] elapses, [None] otherwise.  The loser of the race
    is disarmed. *)
let suspend_timeout t ~timeout (register : ('a option -> unit) -> unit) :
    'a option =
  suspend (fun waker ->
      register (fun v -> waker v);
      at t ~delay:timeout (fun () -> waker None))
