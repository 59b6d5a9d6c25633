(* Tests for the software TLB: stale entries must never outlive a
   revoked or re-permissioned mapping (§4.1 fault isolation with the
   translation cache on), hits must actually happen on warm paths, and
   the grant-check cache must invalidate on release/revoke. *)

open Hypervisor

let mib = 1024 * 1024

let make_hyp () =
  let phys = Memory.Phys_mem.create () in
  Hyp.create phys

let make_guest_with_process hyp =
  let guest = Hyp.create_vm hyp ~name:"guest" ~kind:Vm.Guest ~mem_bytes:(4 * mib) in
  let pt = Memory.Guest_pt.create () in
  for i = 0 to 7 do
    let gpa = Vm.alloc_gpa_page guest in
    Memory.Guest_pt.map pt
      ~gva:(0x1000 + (i * Memory.Addr.page_size))
      ~gpa ~perms:Memory.Perm.rw
  done;
  (guest, pt)

let driver_and_guest () =
  let hyp = make_hyp () in
  let driver = Hyp.create_vm hyp ~name:"driver" ~kind:Vm.Driver ~mem_bytes:(4 * mib) in
  let guest, pt = make_guest_with_process hyp in
  let table = Hyp.setup_grant_table hyp guest in
  (hyp, driver, guest, pt, table)

(* Install a device page into the guest process via the full
   memory-operation API; returns the request used. *)
let map_device_page hyp driver guest pt table ~gva =
  let dev_spn = Memory.Phys_mem.alloc_frame (Hyp.phys hyp) in
  Memory.Phys_mem.write (Hyp.phys hyp)
    ~spa:(Memory.Addr.of_pfn dev_spn)
    (Bytes.of_string "device-bytes");
  let r =
    Grant_table.declare table
      [ Grant_table.Map_page { addr = gva; len = Memory.Addr.page_size } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  Memory.Guest_pt.prepare_range pt ~gva ~len:Memory.Addr.page_size;
  Hyp.map_page_into_process hyp req ~gva ~spa:(Memory.Addr.of_pfn dev_spn)
    ~perms:Memory.Perm.rw;
  req

let faults_on_read vm pt gva =
  match Vm.read_gva vm ~pt ~gva ~len:4 with
  | _ -> false
  | exception (Memory.Fault.Page_fault _ | Memory.Fault.Ept_violation _) -> true

(* ---- invalidation: cached translations must fault after revocation ---- *)

let test_stale_after_guest_pt_unmap () =
  let hyp, _driver, guest, pt, _table = driver_and_guest () in
  ignore hyp;
  Vm.write_gva guest ~pt ~gva:0x1000 (Bytes.of_string "warm");
  Alcotest.(check string) "cached read works" "warm"
    (Bytes.to_string (Vm.read_gva guest ~pt ~gva:0x1000 ~len:4));
  ignore (Memory.Guest_pt.unmap pt ~gva:0x1000);
  Alcotest.(check bool) "read faults after guest-PT unmap" true
    (faults_on_read guest pt 0x1000)

let test_stale_after_ept_set_perms () =
  let hyp, _driver, guest, pt, _table = driver_and_guest () in
  ignore hyp;
  Vm.write_gva guest ~pt ~gva:0x1000 (Bytes.of_string "warm");
  let (_ : bytes) = Vm.read_gva guest ~pt ~gva:0x1000 ~len:4 in
  let gpa = Memory.Guest_pt.translate pt ~gva:0x1000 ~access:Memory.Perm.Read in
  Memory.Ept.set_perms (Vm.ept guest) ~gpa ~perms:Memory.Perm.none;
  Alcotest.(check bool) "read faults after EPT permission strip" true
    (faults_on_read guest pt 0x1000)

(* Guest RAM is mapped with 2 MiB EPT leaves: stripping one page must
   split its leaf, invalidate the translation cached from the large
   leaf, and leave the neighbouring pages translating as before. *)
let test_stale_inside_large_leaf () =
  let hyp = make_hyp () in
  let guest = Hyp.create_vm hyp ~name:"guest" ~kind:Vm.Guest ~mem_bytes:(4 * mib) in
  let page = Memory.Addr.page_size in
  let gpa = (2 * mib) + (5 * page) in
  let before = Vm.translate_gpa guest ~gpa ~access:Memory.Perm.Read in
  let next = Vm.translate_gpa guest ~gpa:(gpa + page) ~access:Memory.Perm.Read in
  Alcotest.(check int) "large leaf maps contiguous frames" (before + page) next;
  Memory.Ept.set_perms (Vm.ept guest) ~gpa ~perms:Memory.Perm.none;
  Alcotest.(check bool) "cached page faults after set_perms" true
    (match Vm.read_gpa guest ~gpa ~len:4 with
    | _ -> false
    | exception Memory.Fault.Ept_violation _ -> true);
  Alcotest.(check int) "page after still translates" next
    (Vm.translate_gpa guest ~gpa:(gpa + page) ~access:Memory.Perm.Read);
  Alcotest.(check int) "page before still translates" (before - page)
    (Vm.translate_gpa guest ~gpa:(gpa - page) ~access:Memory.Perm.Write)

let test_stale_after_unmap_page_from_process () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let gva = 0x40000000 in
  let req = map_device_page hyp driver guest pt table ~gva in
  Alcotest.(check string) "mapped page readable (fills TLB)" "device-bytes"
    (Bytes.to_string (Vm.read_gva guest ~pt ~gva ~len:12));
  Hyp.unmap_page_from_process hyp req ~gva;
  Alcotest.(check bool) "cached translation faults after unmap hypercall" true
    (faults_on_read guest pt gva)

let test_stale_after_teardown_vm_mappings () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  Hyp.register_process hyp guest ~pid:1 ~pt;
  let gva = 0x40000000 in
  let (_ : Hyp.request) = map_device_page hyp driver guest pt table ~gva in
  let (_ : bytes) = Vm.read_gva guest ~pt ~gva ~len:4 in
  Alcotest.(check int) "one mapping torn down" 1
    (Hyp.teardown_vm_mappings hyp ~target:guest);
  Alcotest.(check bool) "cached translation faults after teardown" true
    (faults_on_read guest pt gva)

let test_kill_vm_flushes_tlb () =
  let hyp, _driver, guest, pt, _table = driver_and_guest () in
  Vm.write_gva guest ~pt ~gva:0x1000 (Bytes.of_string "warm");
  let (_ : bytes) = Vm.read_gva guest ~pt ~gva:0x1000 ~len:4 in
  Alcotest.(check bool) "TLB populated" true
    (Memory.Tlb.entry_count (Vm.tlb guest) > 0);
  Hyp.kill_vm hyp guest;
  Alcotest.(check int) "TLB empty after kill" 0
    (Memory.Tlb.entry_count (Vm.tlb guest))

(* Every way an entry can leave the table moves the epoch, which the
   shared-page frame caches stamp with. *)
let test_epoch_moves_when_entries_drop () =
  let tlb = Memory.Tlb.create ~max_entries:2 () in
  let entry spn =
    { Memory.Tlb.spn; pt_perms = Memory.Perm.rwx; ept_perms = Memory.Perm.rw; pt_gen = 0;
      ept_gen = 0 }
  in
  let e0 = Memory.Tlb.epoch tlb in
  Memory.Tlb.install tlb ~key:(Memory.Tlb.key ~space:Memory.Tlb.gpa_space ~vfn:1) (entry 10);
  Memory.Tlb.install tlb ~key:(Memory.Tlb.key ~space:Memory.Tlb.gpa_space ~vfn:1) (entry 10);
  Memory.Tlb.install tlb ~key:(Memory.Tlb.key ~space:Memory.Tlb.gpa_space ~vfn:2) (entry 11);
  Alcotest.(check int) "fills below capacity keep the epoch" e0 (Memory.Tlb.epoch tlb);
  Memory.Tlb.install tlb ~key:(Memory.Tlb.key ~space:Memory.Tlb.gpa_space ~vfn:3) (entry 12);
  Alcotest.(check int) "wholesale reset at max_entries moves it" (e0 + 1)
    (Memory.Tlb.epoch tlb);
  Alcotest.(check int) "only the new entry survives" 1 (Memory.Tlb.entry_count tlb);
  Memory.Tlb.flush tlb;
  Alcotest.(check int) "flush moves it" (e0 + 2) (Memory.Tlb.epoch tlb)

(* ---- hit rate ---- *)

let test_second_copy_all_hits () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let len = 4 * Memory.Addr.page_size in
  let r =
    Grant_table.declare table [ Grant_table.Copy_from_user { addr = 0x1000; len } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let audit = Hyp.audit hyp in
  let (_ : bytes) = Hyp.copy_from_process hyp req ~gva:0x1000 ~len in
  let misses_after_first = Audit.tlb_misses audit in
  let hits_before = Audit.tlb_hits audit in
  let (_ : bytes) = Hyp.copy_from_process hyp req ~gva:0x1000 ~len in
  Alcotest.(check int) "no new misses on the second copy" misses_after_first
    (Audit.tlb_misses audit);
  Alcotest.(check int) "every page of the second copy hit" (hits_before + 4)
    (Audit.tlb_hits audit)

let test_hit_rate_above_90_percent () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let len = 8 * Memory.Addr.page_size in
  let r =
    Grant_table.declare table [ Grant_table.Copy_from_user { addr = 0x1000; len } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  for _ = 1 to 50 do
    ignore (Hyp.copy_from_process hyp req ~gva:0x1000 ~len)
  done;
  let audit = Hyp.audit hyp in
  let hits = float_of_int (Audit.tlb_hits audit)
  and misses = float_of_int (Audit.tlb_misses audit) in
  Alcotest.(check bool) "hit rate above 90%" true (hits /. (hits +. misses) > 0.9)

(* ---- grant-check cache ---- *)

let test_grant_cache_hits_on_repeat () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let r =
    Grant_table.declare table [ Grant_table.Copy_from_user { addr = 0x1000; len = 64 } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let audit = Hyp.audit hyp in
  let (_ : bytes) = Hyp.copy_from_process hyp req ~gva:0x1000 ~len:64 in
  let hits_after_first = audit.Audit.grant_cache_hits in
  let (_ : bytes) = Hyp.copy_from_process hyp req ~gva:0x1000 ~len:64 in
  Alcotest.(check int) "second validation served from cache"
    (hits_after_first + 1) audit.Audit.grant_cache_hits

let test_grant_cache_invalidated_on_release () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let r =
    Grant_table.declare table [ Grant_table.Copy_from_user { addr = 0x1000; len = 64 } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let (_ : bytes) = Hyp.copy_from_process hyp req ~gva:0x1000 ~len:64 in
  Grant_table.release table r;
  Alcotest.(check bool) "released grant no longer authorises (cache stale)" true
    (match Hyp.copy_from_process hyp req ~gva:0x1000 ~len:64 with
    | _ -> false
    | exception Hyp.Rejected _ -> true)

let test_grant_cache_invalidated_on_revoke_all () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let r =
    Grant_table.declare table [ Grant_table.Copy_from_user { addr = 0x1000; len = 64 } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let (_ : bytes) = Hyp.copy_from_process hyp req ~gva:0x1000 ~len:64 in
  let (_ : int) = Grant_table.revoke_all table in
  Alcotest.(check bool) "revoked grant no longer authorises (cache stale)" true
    (match Hyp.copy_from_process hyp req ~gva:0x1000 ~len:64 with
    | _ -> false
    | exception Hyp.Rejected _ -> true)

(* The grant cache and the process registry pack (vm id, x) into one
   int.  A grant ref or pid wider than 32 bits must not reach another
   VM's entry through that packing. *)
let test_packed_keys_do_not_alias_vms () =
  let hyp = make_hyp () in
  let victim, victim_pt = make_guest_with_process hyp in
  let driver = Hyp.create_vm hyp ~name:"driver" ~kind:Vm.Driver ~mem_bytes:(4 * mib) in
  let other, other_pt = make_guest_with_process hyp in
  let victim_table = Hyp.setup_grant_table hyp victim in
  let other_table = Hyp.setup_grant_table hyp other in
  (* one declaration each, so both tables read the same generation
     and an aliased cache entry would look current *)
  let (_ : int) =
    Grant_table.declare victim_table [ Grant_table.Copy_to_user { addr = 0x2000; len = 8 } ]
  in
  let r =
    Grant_table.declare other_table [ Grant_table.Copy_from_user { addr = 0x1000; len = 64 } ]
  in
  let (_ : bytes) =
    Hyp.copy_from_process hyp
      { Hyp.caller = driver; target = other; pt = other_pt; grant_ref = r }
      ~gva:0x1000 ~len:64
  in
  let alias x = (Vm.id other lsl 32) lor x - (Vm.id victim lsl 32) in
  Alcotest.(check bool) "a wide grant ref is not served from another VM's cache entry" true
    (match
       Hyp.copy_from_process hyp
         { Hyp.caller = driver; target = victim; pt = victim_pt; grant_ref = alias r }
         ~gva:0x1000 ~len:64
     with
    | _ -> false
    | exception Hyp.Rejected _ -> true);
  Hyp.register_process hyp other ~pid:7 ~pt:other_pt;
  Alcotest.(check bool) "a wide pid does not find another VM's process" true
    (Hyp.find_process_pt hyp victim ~pid:(alias 7) = None);
  Alcotest.(check bool) "the real pair still resolves" true
    (match Hyp.find_process_pt hyp other ~pid:7 with Some pt -> pt == other_pt | None -> false)

(* The TLB packs (space, vfn) into one int.  An address whose vfn
   does not fit the packing must not reach a cached entry through it:
   it walks and is refused exactly as with the cache off.  With page
   table 1, both the gva and the gpa [(1 lsl 52) lor a] pack onto the
   cached gva entry of [a]. *)
let test_out_of_range_addresses_walk () =
  let check_refused ~tlb_on =
    let hyp = make_hyp () in
    let guest = Hyp.create_vm hyp ~name:"guest" ~kind:Vm.Guest ~mem_bytes:(4 * mib) in
    Memory.Tlb.set_enabled (Vm.tlb guest) tlb_on;
    let pt = Memory.Guest_pt.create ~id:1 () in
    let gpa = Vm.alloc_gpa_page guest in
    Memory.Guest_pt.map pt ~gva:0x1000 ~gpa ~perms:Memory.Perm.rw;
    let (_ : int) = Vm.translate_gva guest ~pt ~gva:0x1000 ~access:Memory.Perm.Read in
    let (_ : int) = Vm.translate_gpa guest ~gpa ~access:Memory.Perm.Read in
    let refused what f =
      Alcotest.(check bool)
        (Printf.sprintf "%s refused (tlb %b)" what tlb_on)
        true
        (match f () with _ -> false | exception Invalid_argument _ -> true)
    in
    let gva_of addr () = Vm.translate_gva guest ~pt ~gva:addr ~access:Memory.Perm.Read in
    let gpa_of addr () = Vm.translate_gpa guest ~gpa:addr ~access:Memory.Perm.Read in
    refused "gva above 2^52" (gva_of ((1 lsl 52) lor 0x1000));
    refused "negative gva" (gva_of (0x1000 - (1 lsl 52)));
    refused "gva -1" (gva_of (-1));
    refused "gpa above 2^52" (gpa_of ((1 lsl 52) lor 0x1000));
    refused "negative gpa" (gpa_of (gpa - (1 lsl 52)));
    refused "gpa -1" (gpa_of (-1))
  in
  check_refused ~tlb_on:true;
  check_refused ~tlb_on:false

(* ---- unmap hypercall caller validation (the PR's bugfix) ---- *)

let test_unmap_guest_caller_rejected () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let gva = 0x40000000 in
  let (_ : Hyp.request) = map_device_page hyp driver guest pt table ~gva in
  let evil = { Hyp.caller = guest; target = guest; pt; grant_ref = 0 } in
  Alcotest.(check bool) "guest cannot unmap via the API" true
    (match Hyp.unmap_page_from_process hyp evil ~gva with
    | () -> false
    | exception Hyp.Rejected _ -> true);
  Alcotest.(check bool) "mapping survived the refused unmap" true
    (Hyp.mapped_via_hypervisor hyp ~target:guest ~pt ~gva)

let test_unmap_dead_driver_rejected () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let gva = 0x40000000 in
  let req = map_device_page hyp driver guest pt table ~gva in
  Hyp.kill_vm hyp driver;
  Alcotest.(check bool) "dead driver cannot unmap" true
    (match Hyp.unmap_page_from_process hyp req ~gva with
    | () -> false
    | exception Hyp.Rejected _ -> true)

let test_unmap_counted_as_hypercall () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let gva = 0x40000000 in
  let req = map_device_page hyp driver guest pt table ~gva in
  let before = (Hyp.audit hyp).Audit.hypercalls in
  Hyp.unmap_page_from_process hyp req ~gva;
  Alcotest.(check int) "unmap audited as a hypercall" (before + 1)
    (Hyp.audit hyp).Audit.hypercalls

let suites =
  [
    ( "tlb.invalidation",
      [
        Alcotest.test_case "stale after guest-PT unmap" `Quick
          test_stale_after_guest_pt_unmap;
        Alcotest.test_case "stale after EPT set_perms" `Quick
          test_stale_after_ept_set_perms;
        Alcotest.test_case "stale inside a 2 MiB leaf" `Quick test_stale_inside_large_leaf;
        Alcotest.test_case "stale after unmap hypercall" `Quick
          test_stale_after_unmap_page_from_process;
        Alcotest.test_case "stale after teardown" `Quick
          test_stale_after_teardown_vm_mappings;
        Alcotest.test_case "kill_vm flushes" `Quick test_kill_vm_flushes_tlb;
        Alcotest.test_case "epoch moves when entries drop" `Quick
          test_epoch_moves_when_entries_drop;
      ] );
    ( "tlb.hit_rate",
      [
        Alcotest.test_case "second copy all hits" `Quick test_second_copy_all_hits;
        Alcotest.test_case "hit rate > 90%" `Quick test_hit_rate_above_90_percent;
      ] );
    ( "tlb.grant_cache",
      [
        Alcotest.test_case "repeat check cached" `Quick
          test_grant_cache_hits_on_repeat;
        Alcotest.test_case "release invalidates" `Quick
          test_grant_cache_invalidated_on_release;
        Alcotest.test_case "revoke_all invalidates" `Quick
          test_grant_cache_invalidated_on_revoke_all;
        Alcotest.test_case "out-of-range addresses walk" `Quick
          test_out_of_range_addresses_walk;
        Alcotest.test_case "packed keys do not alias VMs" `Quick
          test_packed_keys_do_not_alias_vms;
      ] );
    ( "tlb.unmap_validation",
      [
        Alcotest.test_case "guest caller rejected" `Quick
          test_unmap_guest_caller_rejected;
        Alcotest.test_case "dead driver rejected" `Quick
          test_unmap_dead_driver_rejected;
        Alcotest.test_case "unmap audited" `Quick test_unmap_counted_as_hypercall;
      ] );
  ]
