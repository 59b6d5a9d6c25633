(** Software TLB: a per-address-space translation cache.

    Paradice funnels every data-plane byte through the hypervisor's
    software page walks (§5.2): a guest-PT walk plus an EPT walk per
    4 KiB page.  Kedia & Bansal show software translation caching is
    what makes software-only passthrough competitive; VIA motivates
    keeping the validation checks {e on} while making them cheap.
    This cache does both: a hit still re-checks permissions against
    the cached leaf, and staleness is impossible by construction —
    every entry records the {!Radix_table.generation} of the tables it
    was filled from, and any mutation of either table (unmap, remap,
    permission stripping, teardown) bumps the generation, turning all
    derived entries into misses.  A revoked mapping therefore faults
    exactly as an uncached walk would (§4.1 fault isolation holds with
    the cache enabled).

    Keying: [(space, vfn)] where [space] is 0 for the EPT-only
    gpa→spa cache and the guest page table's id for the combined
    gva→spa cache — one instance serves both kinds of entry for a VM.
    The pair is packed into one int, [space lsl 40 lor vfn] ({!key}),
    so a probe hashes and compares one immediate.  Only pairs with a
    40-bit vfn and a 22-bit space pack without colliding; any other
    pair (a gva or gpa at or above 2{^52}, or negative) gets {!no_key},
    which always misses and is never installed, so such an address
    reaches the walk and faults there exactly as with the cache off.

    The cache affects wall-clock speed only: simulated time is charged
    by the cost model upstream, so calibrated experiment output is
    bit-identical with the cache on or off. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable walks : int; (* full software walks performed (slow path) *)
}

let create_stats () = { hits = 0; misses = 0; walks = 0 }

type entry = {
  spn : int; (* system frame backing the page *)
  pt_perms : Perm.t; (* guest-PT leaf perms (rwx for gpa-space entries) *)
  ept_perms : Perm.t; (* EPT leaf perms *)
  pt_gen : int; (* Guest_pt generation at fill (0 for gpa-space) *)
  ept_gen : int; (* EPT generation at fill *)
}

type t = {
  table : entry Int_tbl.t;
  stats : stats;
  max_entries : int;
  mutable enabled : bool;
  mutable epoch : int; (* bumped whenever entries are dropped wholesale *)
}

(* The gpa→spa entries use space id 0; guest page-table ids start at 1. *)
let gpa_space = 0

let vfn_bits = 40
let space_bits = Sys.int_size - 1 - vfn_bits

let no_key = -1

let[@inline] key ~space ~vfn =
  if vfn lsr vfn_bits = 0 && space lsr space_bits = 0 then (space lsl vfn_bits) lor vfn
  else no_key

let create ?(max_entries = 16384) ?stats () =
  let stats = match stats with Some s -> s | None -> create_stats () in
  { table = Int_tbl.create 256; stats; max_entries; enabled = true; epoch = 0 }

let stats t = t.stats
let entry_count t = Int_tbl.length t.table
let enabled t = t.enabled
let set_enabled t on = t.enabled <- on

let epoch t = t.epoch

let flush t =
  Int_tbl.reset t.table;
  t.epoch <- t.epoch + 1

(* Returned by a miss, and probed for by physical equality. *)
let absent = { spn = -1; pt_perms = Perm.none; ept_perms = Perm.none; pt_gen = -1; ept_gen = -1 }

(** Cache lookup.  Returns the backing frame only when the entry is
    current (both generations match) {e and} the cached leaf
    permissions allow [access]; anything else is a miss, [-1], and
    the caller must perform the full walk (which faults or refills). *)
let lookup t ~key ~access ~pt_gen ~ept_gen =
  if not t.enabled then -1
  else
    let e = Int_tbl.find_default t.table key absent in
    if
      e != absent && e.pt_gen = pt_gen && e.ept_gen = ept_gen
      && Perm.allows e.pt_perms access
      && Perm.allows e.ept_perms access
    then begin
      t.stats.hits <- t.stats.hits + 1;
      e.spn
    end
    else begin
      t.stats.misses <- t.stats.misses + 1;
      -1
    end

let install t ~key entry =
  if t.enabled && key <> no_key then begin
    if Int_tbl.length t.table >= t.max_entries then flush t;
    Int_tbl.replace t.table key entry
  end

let count_walks t n = t.stats.walks <- t.stats.walks + n
