(* The benchmark's own span recorder.  Each span is recorded around a
   call into one layer's public functions and carries both clocks: host
   monotonic nanoseconds and simulated microseconds.  The first [cap/2]
   spans (set-up) and the last [cap/2] (the end of the measured phases)
   are kept in memory and written out as JSON lines at the end; those
   in between are only counted, so a long traced run stays bounded. *)

type t = {
  cap : int;
  mutable next_id : int;
  mutable total : int;
  ids : int array;
  parents : int array;
  ops : int array;
  names : string array;
  host0 : int array;
  host1 : int array;
  sim0 : Float.Array.t;
  sim1 : Float.Array.t;
}

let create ~cap =
  {
    cap;
    next_id = 0;
    total = 0;
    ids = Array.make cap 0;
    parents = Array.make cap 0;
    ops = Array.make cap 0;
    names = Array.make cap "";
    host0 = Array.make cap 0;
    host1 = Array.make cap 0;
    sim0 = Float.Array.make cap 0.;
    sim1 = Float.Array.make cap 0.;
  }

(* Ids are handed out when a span opens, so children can name a parent
   that has not closed yet.  0 means "no parent". *)
let fresh t =
  t.next_id <- t.next_id + 1;
  t.next_id

(* Slot of the [n]th span: the head fills once, the tail is a ring. *)
let slot t n =
  let head = t.cap / 2 in
  if n < head then n else head + ((n - head) mod (t.cap - head))

let kept t = min t.total t.cap
let dropped t = t.total - kept t

let record t ~id ~name ~parent ~op ~h0 ~h1 ~s0 ~s1 =
  if t.cap > 0 then begin
    let i = slot t t.total in
    t.ids.(i) <- id;
    t.parents.(i) <- parent;
    t.ops.(i) <- op;
    t.names.(i) <- name;
    t.host0.(i) <- h0;
    t.host1.(i) <- h1;
    Float.Array.set t.sim0 i s0;
    Float.Array.set t.sim1 i s1
  end;
  t.total <- t.total + 1

let write t path =
  let oc = open_out path in
  let line n =
    let i = slot t n in
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":\"%s\",\"host_start_ns\":%d,\"host_end_ns\":%d,\"sim_start_us\":%.17g,\"sim_end_us\":%.17g}\n"
      t.ids.(i) t.parents.(i) t.ops.(i) t.names.(i) t.host0.(i) t.host1.(i)
      (Float.Array.get t.sim0 i) (Float.Array.get t.sim1 i)
  in
  let head = min t.total (t.cap / 2) in
  for n = 0 to head - 1 do
    line n
  done;
  for n = max head (t.total - (t.cap - (t.cap / 2))) to t.total - 1 do
    line n
  done;
  close_out oc
