(* Tests for the discrete-event simulation core. *)

let check_float = Alcotest.(check (float 1e-9))

let test_empty_run () =
  let eng = Sim.Engine.create () in
  Sim.Engine.run eng;
  check_float "time stays at zero" 0. (Sim.Engine.now eng)

let test_wait_advances_time () =
  let eng = Sim.Engine.create () in
  let finished = ref 0. in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 10.;
      Sim.Engine.wait 5.;
      finished := Sim.Engine.now eng);
  Sim.Engine.run eng;
  check_float "waits accumulate" 15. !finished;
  check_float "engine time" 15. (Sim.Engine.now eng)

let test_spawn_does_not_preempt () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.spawn eng (fun () ->
      log := "a1" :: !log;
      Sim.Engine.spawn eng (fun () -> log := "b" :: !log);
      log := "a2" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "spawner runs to its next yield first"
    [ "a1"; "a2"; "b" ] (List.rev !log)

let test_event_ordering_deterministic () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let p name delay =
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.wait delay;
        log := name :: !log)
  in
  p "late" 10.;
  p "early" 1.;
  p "tie1" 5.;
  p "tie2" 5.;
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "time order, FIFO on ties"
    [ "early"; "tie1"; "tie2"; "late" ] (List.rev !log)

let test_run_until () =
  let eng = Sim.Engine.create () in
  let hits = ref 0 in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 10.;
      incr hits;
      Sim.Engine.wait 10.;
      incr hits);
  Sim.Engine.run ~until:15. eng;
  Alcotest.(check int) "only first event ran" 1 !hits;
  check_float "clock stops at limit" 15. (Sim.Engine.now eng);
  Sim.Engine.run eng;
  Alcotest.(check int) "remaining events run on resume" 2 !hits;
  check_float "clock advances" 20. (Sim.Engine.now eng)

let test_suspend_wake () =
  let eng = Sim.Engine.create () in
  let waker_cell = ref None in
  let got = ref 0 in
  Sim.Engine.spawn eng (fun () ->
      let v = Sim.Engine.suspend (fun waker -> waker_cell := Some waker) in
      got := v);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 3.;
      match !waker_cell with Some w -> w 42 | None -> Alcotest.fail "no waker");
  Sim.Engine.run eng;
  Alcotest.(check int) "value delivered" 42 !got;
  check_float "woke at waker time" 3. (Sim.Engine.now eng)

let test_suspend_waker_idempotent () =
  let eng = Sim.Engine.create () in
  let resumes = ref 0 in
  Sim.Engine.spawn eng (fun () ->
      let _v =
        Sim.Engine.suspend (fun waker ->
            Sim.Engine.at eng ~delay:1. (fun () -> waker 1);
            Sim.Engine.at eng ~delay:2. (fun () -> waker 2))
      in
      incr resumes);
  Sim.Engine.run eng;
  Alcotest.(check int) "resumed exactly once" 1 !resumes

let test_suspend_timeout_fires () =
  let eng = Sim.Engine.create () in
  let result = ref (Some 0) in
  Sim.Engine.spawn eng (fun () ->
      result := Sim.Engine.suspend_timeout eng ~timeout:5. (fun _waker -> ()));
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "timed out" None !result;
  check_float "timeout consumed simulated time" 5. (Sim.Engine.now eng)

let test_suspend_timeout_won_by_waker () =
  let eng = Sim.Engine.create () in
  let result = ref None and woke_at = ref nan in
  Sim.Engine.spawn eng (fun () ->
      result :=
        Sim.Engine.suspend_timeout eng ~timeout:5. (fun waker ->
            Sim.Engine.at eng ~delay:2. (fun () -> waker (Some 7)));
      woke_at := Sim.Engine.now eng);
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "waker won" (Some 7) !result;
  (* The disarmed timer still pops (and is ignored) at t=5, but the
     process itself resumed at t=2. *)
  check_float "woke before timeout" 2. !woke_at

let test_deadlock_detection () =
  let eng = Sim.Engine.create () in
  Sim.Engine.spawn eng (fun () ->
      let (_ : int) = Sim.Engine.suspend (fun _waker -> ()) in
      ());
  Sim.Engine.run eng;
  Alcotest.(check bool) "stuck process detected" true (Sim.Engine.deadlocked eng)

(* ---- the uncontested-wait bypass ----

   A wait whose own event would be the next one run skips the queue.
   These cases sit at the edges of that condition. *)

let test_wait_stops_at_until () =
  let eng = Sim.Engine.create () in
  let steps = ref [] in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 1.;
      steps := Sim.Engine.now eng :: !steps;
      Sim.Engine.wait 1.;
      steps := Sim.Engine.now eng :: !steps;
      (* alone in the queue, but past [until] *)
      Sim.Engine.wait 10.;
      steps := Sim.Engine.now eng :: !steps);
  Sim.Engine.run ~until:5. eng;
  Alcotest.(check (list (float 0.))) "waits inside the limit ran" [ 1.; 2. ] (List.rev !steps);
  check_float "clock stops exactly at until" 5. (Sim.Engine.now eng);
  Sim.Engine.run ~until:12. eng;
  Alcotest.(check (list (float 0.))) "the crossing wait resumes on the next run"
    [ 1.; 2.; 12. ] (List.rev !steps);
  (* a wait landing exactly on [until] is inside it *)
  let eng = Sim.Engine.create () in
  let at = ref nan in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 5.;
      at := Sim.Engine.now eng);
  Sim.Engine.run ~until:5. eng;
  check_float "a wait ending on until runs" 5. !at

let test_wait_zero_yields_to_ready () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.spawn eng (fun () -> log := "b" :: !log);
      Sim.Engine.wait 0.;
      log := "a" :: !log;
      Sim.Engine.at eng ~delay:0. (fun () -> log := "at" :: !log);
      Sim.Engine.yield ();
      log := "a2" :: !log;
      (* nothing else queued: the yield returns at once *)
      Sim.Engine.yield ();
      log := "a3" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "wait 0 lets ready events run first"
    [ "b"; "a"; "at"; "a2"; "a3" ] (List.rev !log);
  (* a heap event due at exactly [now +. d] still runs first: it was
     queued earlier *)
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.at eng ~delay:3. (fun () -> log := "timer" :: !log);
      Sim.Engine.wait 3.;
      log := "waiter" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "an earlier event at the same time goes first"
    [ "timer"; "waiter" ] (List.rev !log)

let raises_unhandled eng =
  match Sim.Engine.run eng with
  | () -> false
  | exception Effect.Unhandled _ -> true

let test_wait_in_callback_unhandled () =
  let eng = Sim.Engine.create () in
  Sim.Engine.at eng ~delay:1. (fun () -> Sim.Engine.wait 1.);
  Alcotest.(check bool) "wait in an at callback raises Effect.Unhandled" true
    (raises_unhandled eng);
  (* the same after processes have run on this engine *)
  let eng = Sim.Engine.create () in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 1.;
      Sim.Engine.at eng ~delay:1. (fun () -> Sim.Engine.wait 1.));
  Alcotest.(check bool) "also after a process ran" true (raises_unhandled eng);
  Alcotest.(check bool) "and outside any run" true
    (match Sim.Engine.wait 1. with () -> false | exception Effect.Unhandled _ -> true)

let test_wait_after_process_raised () =
  let eng = Sim.Engine.create () in
  let times = ref [] in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 1.;
      failwith "boom");
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 2.;
      times := Sim.Engine.now eng :: !times;
      Sim.Engine.wait 3.;
      times := Sim.Engine.now eng :: !times);
  (match Sim.Engine.run eng with
  | () -> Alcotest.fail "the raising process did not raise"
  | exception Failure _ -> ());
  check_float "stopped where the process raised" 1. (Sim.Engine.now eng);
  Alcotest.(check int) "the raiser is no longer live" 1 (Sim.Engine.live_processes eng);
  (* a wait the bypass could serve, were the raise to leave the
     process flag set *)
  Sim.Engine.at eng ~delay:0.5 (fun () -> Sim.Engine.wait 0.1);
  Alcotest.(check bool) "a callback's wait still raises" true (raises_unhandled eng);
  Sim.Engine.run eng;
  Alcotest.(check (list (float 0.))) "the other process keeps its times" [ 2.; 5. ]
    (List.rev !times);
  Alcotest.(check int) "all processes done" 0 (Sim.Engine.live_processes eng)

let test_mailbox_fifo () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create eng in
  let got = ref [] in
  Sim.Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Sim.Mailbox.recv mb :: !got
      done);
  Sim.Engine.spawn eng (fun () ->
      Sim.Mailbox.send mb 1;
      Sim.Engine.wait 1.;
      Sim.Mailbox.send mb 2;
      Sim.Mailbox.send mb 3);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "messages in order" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_buffers_when_no_receiver () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create eng in
  Sim.Mailbox.send mb "x";
  Sim.Mailbox.send mb "y";
  let got = ref [] in
  Sim.Engine.spawn eng (fun () ->
      let first = Sim.Mailbox.recv mb in
      let second = Sim.Mailbox.recv mb in
      got := [ first; second ]);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "buffered sends" [ "x"; "y" ] !got

let test_mailbox_recv_timeout () =
  let eng = Sim.Engine.create () in
  let mb : int Sim.Mailbox.t = Sim.Mailbox.create eng in
  let first = ref (Some 0) and second = ref None in
  Sim.Engine.spawn eng (fun () ->
      first := Sim.Mailbox.recv_timeout mb ~timeout:5.;
      second := Sim.Mailbox.recv_timeout mb ~timeout:100.);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 20.;
      Sim.Mailbox.send mb 9);
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "first recv timed out" None !first;
  Alcotest.(check (option int)) "second recv got message" (Some 9) !second

let test_mailbox_dead_waiter_redispatch () =
  (* A timed-out waiter must not swallow a message while a live waiter
     is blocked behind it. *)
  let eng = Sim.Engine.create () in
  let mb : int Sim.Mailbox.t = Sim.Mailbox.create eng in
  let live_got = ref None in
  Sim.Engine.spawn eng (fun () ->
      (* becomes the dead waiter *)
      ignore (Sim.Mailbox.recv_timeout mb ~timeout:1.);
      Sim.Engine.wait 1000.);
  Sim.Engine.spawn eng (fun () ->
      (* blocks behind the dead waiter, forever-patient *)
      live_got := Some (Sim.Mailbox.recv mb));
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 10.;
      Sim.Mailbox.send mb 5);
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "live waiter got the message" (Some 5) !live_got

let test_semaphore_mutual_exclusion () =
  let eng = Sim.Engine.create () in
  let sem = Sim.Semaphore.create 1 in
  let inside = ref 0 and max_inside = ref 0 and completed = ref 0 in
  for _ = 1 to 5 do
    Sim.Engine.spawn eng (fun () ->
        Sim.Semaphore.with_resource sem (fun () ->
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            Sim.Engine.wait 10.;
            decr inside);
        incr completed)
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "never more than one inside" 1 !max_inside;
  Alcotest.(check int) "all completed" 5 !completed;
  check_float "fully serialised" 50. (Sim.Engine.now eng)

let test_semaphore_release_on_exception () =
  let eng = Sim.Engine.create () in
  let sem = Sim.Semaphore.create 1 in
  let ok = ref false in
  Sim.Engine.spawn eng (fun () ->
      (try Sim.Semaphore.with_resource sem (fun () -> failwith "boom")
       with Failure _ -> ());
      Sim.Semaphore.with_resource sem (fun () -> ok := true));
  Sim.Engine.run eng;
  Alcotest.(check bool) "resource still usable" true !ok

let test_semaphore_counting () =
  let eng = Sim.Engine.create () in
  let sem = Sim.Semaphore.create 2 in
  let max_inside = ref 0 and inside = ref 0 in
  for _ = 1 to 6 do
    Sim.Engine.spawn eng (fun () ->
        Sim.Semaphore.with_resource sem (fun () ->
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            Sim.Engine.wait 5.;
            decr inside))
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "two at a time" 2 !max_inside;
  check_float "three rounds of two" 15. (Sim.Engine.now eng)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:42L and b = Sim.Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_rng_int_in_range () =
  (* Regression: [Int64.to_int] of a 63-bit draw wrapped negative on
     63-bit OCaml ints, so [Rng.int] returned negatives about half the
     time. *)
  let r = Sim.Rng.create ~seed:7L in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int r 256 in
    if v < 0 || v >= 256 then
      Alcotest.failf "Rng.int out of range: %d" v
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create ~seed:42L in
  let b = Sim.Rng.split a in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 1_000_000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_derive_pure () =
  (* derive is a pure function of (seed, index): re-deriving the same
     stream replays it exactly, and deriving other indices in between
     (construction order) changes nothing *)
  let tap rng = List.init 50 (fun _ -> Sim.Rng.next_int64 rng) in
  let a = tap (Sim.Rng.derive ~seed:0xF1EE7L ~index:3) in
  ignore (tap (Sim.Rng.derive ~seed:0xF1EE7L ~index:0));
  ignore (tap (Sim.Rng.derive ~seed:0xF1EE7L ~index:7));
  let a' = tap (Sim.Rng.derive ~seed:0xF1EE7L ~index:3) in
  Alcotest.(check bool) "stable across runs and order" true (a = a');
  Alcotest.(check bool) "index 0 differs from the master stream" true
    (tap (Sim.Rng.derive ~seed:0xF1EE7L ~index:0)
    <> tap (Sim.Rng.create ~seed:0xF1EE7L));
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.derive: index must be >= 0") (fun () ->
      ignore (Sim.Rng.derive ~seed:1L ~index:(-1)))

let test_rng_derive_uncorrelated () =
  (* adjacent shard streams must not be trivially correlated: no shared
     draws, and each stream alone still looks uniform (mean of many
     [0,1) floats near 0.5) *)
  let n = 2_000 in
  let streams =
    List.init 4 (fun i -> Sim.Rng.derive ~seed:0xD00DL ~index:i)
  in
  let draws = List.map (fun r -> Array.init n (fun _ -> Sim.Rng.float r 1.)) streams in
  List.iteri
    (fun i xs ->
      let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
      if Float.abs (mean -. 0.5) > 0.03 then
        Alcotest.failf "stream %d mean %.3f far from 0.5" i mean)
    draws;
  (* pairwise: identical positions almost never collide *)
  List.iteri
    (fun i xs ->
      List.iteri
        (fun j ys ->
          if j > i then begin
            let coll = ref 0 in
            for k = 0 to n - 1 do
              if xs.(k) = ys.(k) then incr coll
            done;
            if !coll > 0 then
              Alcotest.failf "streams %d/%d share %d draws" i j !coll
          end)
        draws)
    draws

let test_stats () =
  let s = Sim.Stats.create "t" in
  List.iter (Sim.Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  check_float "mean" 3. (Sim.Stats.mean s);
  check_float "min" 1. (Sim.Stats.min_value s);
  check_float "max" 5. (Sim.Stats.max_value s);
  check_float "median" 3. (Sim.Stats.median s);
  Alcotest.(check int) "count" 5 (Sim.Stats.count s)

let test_stats_percentiles () =
  (* Known quantiles under linear interpolation (rank = p/100*(n-1)).
     Regression: nearest-rank rounding used to snap p99 of a small run
     to the maximum sample. *)
  let s = Sim.Stats.create "q" in
  List.iter (fun x -> Sim.Stats.add s (float_of_int x)) [ 30; 10; 50; 20; 40; 90; 70; 100; 60; 80 ];
  check_float "p0 = min" 10. (Sim.Stats.percentile s 0.);
  check_float "p100 = max" 100. (Sim.Stats.percentile s 100.);
  check_float "p50 interpolates" 55. (Sim.Stats.percentile s 50.);
  check_float "p90 interpolates" 91. (Sim.Stats.percentile s 90.);
  check_float "p99 below max" 99.1 (Sim.Stats.percentile s 99.);
  (* the sorted cache must be invalidated by a later add *)
  Sim.Stats.add s 0.;
  check_float "cache invalidated on add" 0. (Sim.Stats.percentile s 0.);
  check_float "p50 shifts with the new sample" 50. (Sim.Stats.percentile s 50.)

let test_stats_merge () =
  (* merged accumulators must equal pooling the raw samples — the
     fleet's cross-shard aggregation path *)
  let rng = Sim.Rng.create ~seed:99L in
  let parts = List.init 4 (fun i -> Sim.Stats.create (Printf.sprintf "s%d" i)) in
  let pooled = Sim.Stats.create "pooled" in
  List.iter
    (fun part ->
      for _ = 1 to 250 do
        let x = Sim.Rng.float rng 1000. in
        Sim.Stats.add part x;
        Sim.Stats.add pooled x
      done)
    parts;
  let merged = Sim.Stats.merge "merged" parts in
  Alcotest.(check int) "count" (Sim.Stats.count pooled) (Sim.Stats.count merged);
  check_float "mean" (Sim.Stats.mean pooled) (Sim.Stats.mean merged);
  check_float "min" (Sim.Stats.min_value pooled) (Sim.Stats.min_value merged);
  check_float "max" (Sim.Stats.max_value pooled) (Sim.Stats.max_value merged);
  List.iter
    (fun p ->
      check_float
        (Printf.sprintf "p%.1f" p)
        (Sim.Stats.percentile pooled p)
        (Sim.Stats.percentile merged p))
    [ 50.; 90.; 99.; 99.9 ];
  check_float "p99 accessor" (Sim.Stats.percentile merged 99.) (Sim.Stats.p99 merged);
  check_float "p999 accessor" (Sim.Stats.percentile merged 99.9) (Sim.Stats.p999 merged);
  (* sources unchanged; merge_into keeps accepting adds (cache reset) *)
  Alcotest.(check int) "source untouched" 250 (Sim.Stats.count (List.hd parts));
  Sim.Stats.add merged 1.0e9;
  check_float "max after later add" 1.0e9 (Sim.Stats.max_value merged);
  check_float "p100 after later add" 1.0e9 (Sim.Stats.percentile merged 100.)

(* Property tests *)

let prop_heap_pops_sorted =
  QCheck.Test.make ~name:"heap pops in (time, seq) order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.) unit))
    (fun entries ->
      let heap = Sim.Heap.create ~dummy:(nan, -1) in
      List.iteri
        (fun i (t, ()) -> Sim.Heap.push heap ~time:t ~seq:i (t, i))
        entries;
      let rec drain acc =
        if Sim.Heap.is_empty heap then List.rev acc
        else drain (Sim.Heap.pop heap :: acc)
      in
      let out = drain [] in
      let sorted = List.sort compare out in
      out = sorted)

(* Pushes and pops interleaved: every pop must return the least
   pending (time, seq) entry, exactly as a sorted-list model would —
   values follow their keys through slot reuse. *)
let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap pops least (time, seq) under interleaved push/pop" ~count:300
    QCheck.(list_of_size Gen.(0 -- 300) (option (float_bound_exclusive 100.)))
    (fun script ->
      let heap = Sim.Heap.create ~dummy:(nan, -1) in
      let model = ref [] in
      let ok = ref true in
      let pop () =
        match List.sort compare !model with
        | [] -> ()
        | least :: rest ->
            model := rest;
            if Sim.Heap.min_time heap <> fst least || Sim.Heap.pop heap <> least then
              ok := false
      in
      List.iteri
        (fun seq -> function
          | Some time ->
              (* coarse times so equal timestamps are common *)
              let time = Float.round time in
              Sim.Heap.push heap ~time ~seq (time, seq);
              model := (time, seq) :: !model
          | None -> pop ())
        script;
      while !model <> [] do
        pop ()
      done;
      !ok && Sim.Heap.is_empty heap)

(* A popped value is released by the heap at once: the engine's values
   are closures over continuations. *)
let[@inline never] push_then_pop_closure heap weak =
  let captured = ref 0 in
  let f () = incr captured in
  Weak.set weak 0 (Some f);
  Sim.Heap.push heap ~time:1. ~seq:0 f;
  Sim.Heap.push heap ~time:2. ~seq:1 ignore;
  let (_ : unit -> unit) = Sys.opaque_identity (Sim.Heap.pop heap) in
  ()

let test_heap_slot_hygiene () =
  let heap = Sim.Heap.create ~dummy:ignore in
  let weak = Weak.create 1 in
  push_then_pop_closure heap weak;
  Gc.full_major ();
  Alcotest.(check bool) "popped closure collected" true (Weak.get weak 0 = None);
  Alcotest.(check int) "other entry still queued" 1 (Sim.Heap.length heap)

let test_heap_refill_past_grow () =
  (* fill past several grows, drain, refill: slots freed by the drain
     are reused and every value still pops with its own key *)
  let heap = Sim.Heap.create ~dummy:(-1) in
  let fill n ~seq0 =
    for k = 0 to n - 1 do
      (* descending times with ties, so pushes sift *)
      Sim.Heap.push heap ~time:(float_of_int ((n - k) / 2)) ~seq:(seq0 + k) (seq0 + k)
    done
  in
  let drain () =
    let out = ref [] in
    while not (Sim.Heap.is_empty heap) do
      out := Sim.Heap.pop heap :: !out
    done;
    List.rev !out
  in
  let expected n ~seq0 =
    List.init n (fun k -> ((n - k) / 2, seq0 + k))
    |> List.sort compare
    |> List.map snd
  in
  fill 40 ~seq0:0;
  Alcotest.(check (list int)) "first fill drains in order" (expected 40 ~seq0:0) (drain ());
  fill 100 ~seq0:1000;
  Alcotest.(check (list int)) "refill past the next grow drains in order"
    (expected 100 ~seq0:1000) (drain ());
  fill 10 ~seq0:5000;
  Alcotest.(check int) "length after a partial refill" 10 (Sim.Heap.length heap);
  Alcotest.(check (list int)) "partial refill drains in order" (expected 10 ~seq0:5000)
    (drain ())

let prop_engine_time_monotonic =
  QCheck.Test.make ~name:"engine time is monotonic over random waits" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (float_bound_exclusive 100.))
    (fun delays ->
      let eng = Sim.Engine.create () in
      let times = ref [] in
      List.iter
        (fun d ->
          Sim.Engine.spawn eng (fun () ->
              Sim.Engine.wait d;
              times := Sim.Engine.now eng :: !times))
        delays;
      Sim.Engine.run eng;
      let observed = List.rev !times in
      let rec monotonic = function
        | a :: (b :: _ as rest) -> a <= b && monotonic rest
        | _ -> true
      in
      monotonic observed)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"stats mean lies within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1e6))
    (fun xs ->
      let s = Sim.Stats.create "p" in
      List.iter (Sim.Stats.add s) xs;
      Sim.Stats.mean s >= Sim.Stats.min_value s -. 1e-6
      && Sim.Stats.mean s <= Sim.Stats.max_value s +. 1e-6)

let suites =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "empty run" `Quick test_empty_run;
        Alcotest.test_case "wait advances time" `Quick test_wait_advances_time;
        Alcotest.test_case "spawn does not preempt" `Quick test_spawn_does_not_preempt;
        Alcotest.test_case "deterministic ordering" `Quick test_event_ordering_deterministic;
        Alcotest.test_case "run until" `Quick test_run_until;
        Alcotest.test_case "suspend/wake" `Quick test_suspend_wake;
        Alcotest.test_case "waker idempotent" `Quick test_suspend_waker_idempotent;
        Alcotest.test_case "suspend timeout fires" `Quick test_suspend_timeout_fires;
        Alcotest.test_case "suspend timeout won by waker" `Quick test_suspend_timeout_won_by_waker;
        Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        Alcotest.test_case "wait crossing until stops at until" `Quick test_wait_stops_at_until;
        Alcotest.test_case "wait 0 yields to ready events" `Quick test_wait_zero_yields_to_ready;
        Alcotest.test_case "wait in a callback is unhandled" `Quick
          test_wait_in_callback_unhandled;
        Alcotest.test_case "wait after a process raised" `Quick test_wait_after_process_raised;
        QCheck_alcotest.to_alcotest prop_engine_time_monotonic;
      ] );
    ( "sim.mailbox",
      [
        Alcotest.test_case "fifo delivery" `Quick test_mailbox_fifo;
        Alcotest.test_case "buffers without receiver" `Quick test_mailbox_buffers_when_no_receiver;
        Alcotest.test_case "recv timeout" `Quick test_mailbox_recv_timeout;
        Alcotest.test_case "dead waiter redispatch" `Quick test_mailbox_dead_waiter_redispatch;
      ] );
    ( "sim.semaphore",
      [
        Alcotest.test_case "mutual exclusion" `Quick test_semaphore_mutual_exclusion;
        Alcotest.test_case "release on exception" `Quick test_semaphore_release_on_exception;
        Alcotest.test_case "counting" `Quick test_semaphore_counting;
      ] );
    ( "sim.support",
      [
        Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "rng int in range" `Quick test_rng_int_in_range;
        Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "rng derive pure" `Quick test_rng_derive_pure;
        Alcotest.test_case "rng derive uncorrelated" `Quick test_rng_derive_uncorrelated;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "stats percentiles" `Quick test_stats_percentiles;
        Alcotest.test_case "stats merge = pooled" `Quick test_stats_merge;
        QCheck_alcotest.to_alcotest prop_heap_pops_sorted;
        QCheck_alcotest.to_alcotest prop_heap_interleaved;
        Alcotest.test_case "heap releases popped values" `Quick test_heap_slot_hygiene;
        Alcotest.test_case "heap refill past grow" `Quick test_heap_refill_past_grow;
        QCheck_alcotest.to_alcotest prop_stats_mean_bounded;
      ] );
  ]
