(** Kernel wait queues.

    Processes sleep on a wait queue until a driver wakes them (new
    input event, ring space, fence completion).  Modelled directly on
    the Linux primitive: [wake_all] wakes every sleeper, [wake_one]
    the head. *)

type t = {
  engine : Sim.Engine.t;
  sleepers : (unit option -> unit) Queue.t;
  mutable wakeups : int;
}

let create engine = { engine; sleepers = Queue.create (); wakeups = 0 }

(** Block until woken.  Returns [true]; the [~timeout] variant returns
    [false] on timeout. *)
let sleep t =
  match Sim.Engine.suspend (fun waker -> Queue.add waker t.sleepers) with
  | Some () -> ()
  | None -> assert false

let rec wake_one t =
  t.wakeups <- t.wakeups + 1;
  match Queue.take_opt t.sleepers with
  | Some waker -> waker (Some ())
  | None -> ()

and sleep_timeout t ~timeout =
  let cell = ref `Waiting in
  let result =
    Sim.Engine.suspend_timeout t.engine ~timeout (fun waker ->
        Queue.add
          (fun v ->
            match (!cell, v) with
            | `Waiting, Some () ->
                cell := `Done;
                waker (Some ())
            | `Done, Some () ->
                (* Wakeup landed on a sleeper that already timed out:
                   pass it on so a live sleeper is not starved. *)
                wake_one t
            | _ -> ())
          t.sleepers)
  in
  match result with
  | Some () -> true
  | None ->
      if !cell = `Waiting then cell := `Done;
      false

(* Wakers run after the queue is emptied, so a sleeper that goes back
   to sleep waits for the next wake-up.  With no sleeper there is
   nothing to copy: a driver waking on every completion allocates
   nothing while nobody waits. *)
let wake_all t =
  t.wakeups <- t.wakeups + 1;
  if not (Queue.is_empty t.sleepers) then begin
    let pending = Queue.copy t.sleepers in
    Queue.clear t.sleepers;
    Queue.iter (fun waker -> waker (Some ())) pending
  end

let waiting t = Queue.length t.sleepers
let wakeups t = t.wakeups
