(** Unbounded FIFO message channel between simulated processes.

    [send] never blocks; [recv] blocks until a message is available.
    Wake order is FIFO over blocked receivers, matching a kernel wait
    queue's default behaviour. *)

(* A waiter's [state] is [taken] once a send has woken it,
   [cancelled] once its timeout has, and otherwise it is waiting:
   [untimed] for a plain [recv], or the handle of the timer a
   [recv_timeout] armed, which the winning send cancels.  A plain
   waiter thus carries no timer field. *)
let untimed = Engine.no_timer
let taken = -2
let cancelled = -3
let[@inline] is_waiting state = state >= untimed

type 'a waiter = { wake : 'a option -> unit; mutable state : int }

type 'a t = {
  engine : Engine.t;
  items : 'a Queue.t;
  waiters : 'a waiter Queue.t;
}

let create engine = { engine; items = Queue.create (); waiters = Queue.create () }

let length t = Queue.length t.items

(* Pop waiters until a live one surfaces; Taken/Cancelled entries are
   garbage from completed or timed-out receives and are dropped. *)
let rec next_live_waiter t =
  match Queue.take_opt t.waiters with
  | None -> None
  | Some w when is_waiting w.state -> Some w
  | Some _ -> next_live_waiter t

let send t v =
  match next_live_waiter t with
  | Some w ->
      let timer = w.state in
      w.state <- taken;
      Engine.cancel t.engine timer;
      w.wake (Some v)
  | None -> Queue.add v t.items

let recv t : 'a =
  match Queue.take_opt t.items with
  | Some v -> v
  | None ->
      (match
         Engine.suspend (fun waker ->
             Queue.add { wake = waker; state = untimed } t.waiters)
       with
      | Some v -> v
      | None -> assert false)

let remove_waiter t w =
  let keep = Queue.create () in
  Queue.iter (fun o -> if o != w then Queue.add o keep) t.waiters;
  Queue.clear t.waiters;
  Queue.transfer keep t.waiters

(** [recv_timeout t ~timeout] is [None] when no message arrives within
    [timeout].  A timed-out waiter is removed from the queue, so it
    can never swallow (or force a re-dispatch of) a later send.  The
    waiter's state field decides the send/timeout race: whichever side
    moves it off waiting first wins.  A winning send cancels the
    timer, so the race leaves no event behind; a timer that cannot be
    cancelled (due at once) finds the waiter gone and does nothing. *)
let recv_timeout t ~timeout : 'a option =
  match Queue.take_opt t.items with
  | Some v -> Some v
  | None ->
      Engine.suspend (fun waker ->
          let w = { wake = waker; state = untimed } in
          Queue.add w t.waiters;
          w.state <-
            Engine.timer t.engine ~delay:timeout (fun () ->
                is_waiting w.state
                && begin
                     w.state <- cancelled;
                     remove_waiter t w;
                     waker None;
                     true
                   end))

(** Blocked receivers currently eligible for a send. *)
let waiting t =
  Queue.fold (fun n w -> if is_waiting w.state then n + 1 else n) 0 t.waiters

let peek t = Queue.peek_opt t.items
let is_empty t = Queue.is_empty t.items
