(* Counters the program already keeps, read from outside: hypervisor
   audit, channel and pool stats, backend link stats, physical frames,
   engine spawns and the GC. *)

module M = Paradice.Machine

type t = {
  hypercalls : int;
  copies : int;  (** grant-validated hypervisor copies *)
  copy_bytes : int;
  maps : int;
  grant_cache_hits : int;
  sanitize_rejections : int;
  tlb_hits : int;
  tlb_misses : int;
  tlb_walks : int;
  rpcs : int;
  legs : int;
  cold_legs : int;
  req_poll_pickups : int;
  resp_poll_deliveries : int;
  timeouts : int;
  retries : int;
  rejected_busy : int;
  max_in_flight : int;
  ops_served : int;
  rejected : int;
  malformed : int;
  grant_faults : int;
  frames : int;
  spawned : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  allocated_bytes : float;
}

let take m =
  let a = Hypervisor.Hyp.audit (M.hyp m) in
  let links = List.map (fun (g : M.guest) -> g.M.link) (M.guests m) in
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 links in
  let pool f = sum (fun l -> f (snd (Paradice.Cvd_back.link_stats l))) in
  let max_in_flight =
    List.fold_left
      (fun acc (l : Paradice.Cvd_back.guest_link) ->
        let best = ref acc in
        Paradice.Chan_pool.iter_channels l.pool (fun ch ->
            best := max !best (Paradice.Channel.stats ch).Paradice.Channel.max_in_flight);
        !best)
      0 links
  in
  let gc = Gc.quick_stat () in
  let open Paradice.Chan_pool in
  {
    hypercalls = a.Hypervisor.Audit.hypercalls;
    copies = a.copies_validated;
    copy_bytes = a.copy_bytes;
    maps = a.maps_performed;
    grant_cache_hits = a.grant_cache_hits;
    sanitize_rejections = a.sanitize_rejections;
    tlb_hits = Hypervisor.Audit.tlb_hits a;
    tlb_misses = Hypervisor.Audit.tlb_misses a;
    tlb_walks = Hypervisor.Audit.walks_performed a;
    rpcs = pool (fun s -> s.rpcs);
    legs = pool (fun s -> s.legs);
    cold_legs = pool (fun s -> s.cold_legs);
    req_poll_pickups = pool (fun s -> s.req_poll_pickups);
    resp_poll_deliveries = pool (fun s -> s.resp_poll_deliveries);
    timeouts = pool (fun s -> s.timeouts);
    retries = pool (fun s -> s.retries);
    rejected_busy = pool (fun s -> s.rejected_busy);
    max_in_flight;
    ops_served = sum (fun l -> l.Paradice.Cvd_back.ops_served);
    rejected = sum (fun l -> l.Paradice.Cvd_back.rejected);
    malformed = sum (fun l -> l.Paradice.Cvd_back.malformed);
    grant_faults = sum (fun l -> l.Paradice.Cvd_back.grant_faults);
    frames = Memory.Phys_mem.frame_count m.M.phys;
    spawned = Sim.Engine.spawned (M.engine m);
    minor_words = gc.Gc.minor_words;
    promoted_words = gc.Gc.promoted_words;
    major_collections = gc.Gc.major_collections;
    allocated_bytes = Gc.allocated_bytes ();
  }

(* [per_op] metrics over the interval [a, b] covering [ops] syscalls. *)
let layer_metrics ~ops a b =
  let d f = float_of_int (f b - f a) in
  let per f = d f /. float_of_int (max 1 ops) in
  let ratio num den = if den = 0. then 0. else num /. den in
  [
    ("channel.rpcs", d (fun c -> c.rpcs), "count");
    ("channel.legs_per_op", per (fun c -> c.legs), "count");
    ("channel.cold_legs_per_op", per (fun c -> c.cold_legs), "count");
    ("channel.req_poll_pickups_per_op", per (fun c -> c.req_poll_pickups), "count");
    ("channel.resp_poll_deliveries_per_op", per (fun c -> c.resp_poll_deliveries), "count");
    ("channel.max_in_flight", float_of_int b.max_in_flight, "count");
    ("channel.timeouts", d (fun c -> c.timeouts), "count");
    ("channel.retries", d (fun c -> c.retries), "count");
    ("chan_pool.rejected_busy", d (fun c -> c.rejected_busy), "count");
    ("hyp.hypercalls_per_op", per (fun c -> c.hypercalls), "count");
    ("hyp.copies_per_op", per (fun c -> c.copies), "count");
    ("hyp.copy_bytes_per_op", per (fun c -> c.copy_bytes), "B");
    ("hyp.maps_per_op", per (fun c -> c.maps), "count");
    ("hyp.grant_cache_hit_ratio", ratio (d (fun c -> c.grant_cache_hits)) (d (fun c -> c.copies)), "ratio");
    ("hyp.sanitize_rejections", d (fun c -> c.sanitize_rejections), "count");
    ( "tlb.hit_ratio",
      ratio (d (fun c -> c.tlb_hits)) (d (fun c -> c.tlb_hits + c.tlb_misses)),
      "ratio" );
    ("tlb.walks_per_op", per (fun c -> c.tlb_walks), "count");
    ("cvd_back.ops_served", d (fun c -> c.ops_served), "count");
    ("cvd_back.served_per_rpc", ratio (d (fun c -> c.ops_served)) (d (fun c -> c.rpcs)), "ratio");
    ("cvd_back.rejected", d (fun c -> c.rejected), "count");
    ("cvd_back.malformed", d (fun c -> c.malformed), "count");
    ("cvd_back.grant_faults", d (fun c -> c.grant_faults), "count");
    ("phys_mem.frame_growth_per_op", per (fun c -> c.frames), "count");
    ("engine.spawned_per_op", per (fun c -> c.spawned), "count");
    ("gc.minor_words_per_op", (b.minor_words -. a.minor_words) /. float_of_int (max 1 ops), "words");
    ( "gc.promoted_words_per_op",
      (b.promoted_words -. a.promoted_words) /. float_of_int (max 1 ops),
      "words" );
    ("gc.major_collections", d (fun c -> c.major_collections), "count");
  ]
