(* Tests for the hypervisor: VM creation, shared pages, interrupts,
   grant tables, the memory-operation API and protected regions. *)

open Hypervisor

let mib = 1024 * 1024

let make_hyp () =
  let phys = Memory.Phys_mem.create () in
  Hyp.create phys

let make_guest_with_process hyp =
  let guest = Hyp.create_vm hyp ~name:"guest" ~kind:Vm.Guest ~mem_bytes:(4 * mib) in
  let pt = Memory.Guest_pt.create () in
  (* give the process a few pages of mapped memory at 0x1000 *)
  for i = 0 to 7 do
    let gpa = Vm.alloc_gpa_page guest in
    Memory.Guest_pt.map pt
      ~gva:(0x1000 + (i * Memory.Addr.page_size))
      ~gpa ~perms:Memory.Perm.rw
  done;
  (guest, pt)

let test_create_vm_ram () =
  let hyp = make_hyp () in
  let vm = Hyp.create_vm hyp ~name:"g" ~kind:Vm.Guest ~mem_bytes:mib in
  Vm.write_gpa vm ~gpa:0x1234 (Bytes.of_string "data");
  Alcotest.(check string) "gpa round trip" "data"
    (Bytes.to_string (Vm.read_gpa vm ~gpa:0x1234 ~len:4));
  Alcotest.(check bool) "beyond RAM faults" true
    (match Vm.read_gpa vm ~gpa:(2 * mib) ~len:1 with
    | _ -> false
    | exception Memory.Fault.Ept_violation _ -> true)

let test_vm_isolated_ram () =
  let hyp = make_hyp () in
  let a = Hyp.create_vm hyp ~name:"a" ~kind:Vm.Guest ~mem_bytes:mib in
  let b = Hyp.create_vm hyp ~name:"b" ~kind:Vm.Guest ~mem_bytes:mib in
  Vm.write_gpa a ~gpa:0 (Bytes.of_string "AAAA");
  Vm.write_gpa b ~gpa:0 (Bytes.of_string "BBBB");
  Alcotest.(check string) "a unchanged" "AAAA" (Bytes.to_string (Vm.read_gpa a ~gpa:0 ~len:4));
  Alcotest.(check string) "b unchanged" "BBBB" (Bytes.to_string (Vm.read_gpa b ~gpa:0 ~len:4))

let test_gva_access () =
  let hyp = make_hyp () in
  let guest, pt = make_guest_with_process hyp in
  Vm.write_gva guest ~pt ~gva:0x1ffe (Bytes.of_string "cross-page payload");
  Alcotest.(check string) "gva round trip across pages" "cross-page payload"
    (Bytes.to_string (Vm.read_gva guest ~pt ~gva:0x1ffe ~len:18));
  Vm.write_gva_u32 guest ~pt ~gva:0x3000 0xcafe;
  Alcotest.(check int) "u32 via gva" 0xcafe (Vm.read_gva_u32 guest ~pt ~gva:0x3000)

let test_shared_page_two_vms () =
  let hyp = make_hyp () in
  let a = Hyp.create_vm hyp ~name:"a" ~kind:Vm.Guest ~mem_bytes:mib in
  let b = Hyp.create_vm hyp ~name:"b" ~kind:Vm.Driver ~mem_bytes:mib in
  let page = Shared_page.allocate (Hyp.phys hyp) in
  let (_ : int) = Shared_page.map_into page a ~perms:Memory.Perm.rw in
  let (_ : int) = Shared_page.map_into page b ~perms:Memory.Perm.rw in
  let va = Shared_page.view_of page a and vb = Shared_page.view_of page b in
  Shared_page.write_u32 va ~offset:16 77;
  Alcotest.(check int) "b sees a's write" 77 (Shared_page.read_u32 vb ~offset:16);
  Shared_page.write vb ~offset:100 (Bytes.of_string "pong");
  Alcotest.(check string) "a sees b's write" "pong"
    (Bytes.to_string (Shared_page.read va ~offset:100 ~len:4))

let test_shared_page_respects_ept_perms () =
  let hyp = make_hyp () in
  let a = Hyp.create_vm hyp ~name:"a" ~kind:Vm.Guest ~mem_bytes:mib in
  let page = Shared_page.allocate (Hyp.phys hyp) in
  let gpa = Shared_page.map_into page a ~perms:Memory.Perm.r in
  let va = Shared_page.view_of page a in
  let (_ : bytes) = Shared_page.read va ~offset:0 ~len:4 in
  Alcotest.(check bool) "write through read-only mapping faults" true
    (match Shared_page.write va ~offset:0 (Bytes.of_string "x") with
    | () -> false
    | exception Memory.Fault.Ept_violation info ->
        info.Memory.Fault.addr = gpa && info.Memory.Fault.access = Memory.Perm.Write)

(* ---- shared-page frame cache: revocation, flush, counter parity ---- *)

let ept_fault f =
  match f () with
  | _ -> None
  | exception Memory.Fault.Ept_violation info -> Some info

let fault_t =
  Alcotest.(
    option
      (testable
         (fun ppf (i : Memory.Fault.info) ->
           Format.fprintf ppf "%a %a %s" Memory.Addr.pp_hex i.addr Memory.Perm.pp_access
             i.access i.reason)
         ( = )))

(* Every view accessor, after a mapping change, must fault exactly as
   the VM's plain accessor does on the same address. *)
let check_view_faults_like_vm label vm view ~gpa =
  let off = 8 in
  let pairs =
    [
      ("read_u32", (fun () -> ignore (Shared_page.read_u32 view ~offset:off)),
        fun () -> ignore (Vm.read_gpa_u32 vm ~gpa:(gpa + off)));
      ("write_u32", (fun () -> Shared_page.write_u32 view ~offset:off 1),
        fun () -> Vm.write_gpa_u32 vm ~gpa:(gpa + off) 1);
      ("read_u64", (fun () -> ignore (Shared_page.read_u64 view ~offset:off)),
        fun () -> ignore (Vm.read_gpa_u64 vm ~gpa:(gpa + off)));
      ("write_u64", (fun () -> Shared_page.write_u64 view ~offset:off 1L),
        fun () -> Vm.write_gpa_u64 vm ~gpa:(gpa + off) 1L);
      ("read", (fun () -> ignore (Shared_page.read view ~offset:off ~len:64)),
        fun () -> ignore (Vm.read_gpa vm ~gpa:(gpa + off) ~len:64));
      ("write", (fun () -> Shared_page.write view ~offset:off (Bytes.make 64 'x')),
        fun () -> Vm.write_gpa vm ~gpa:(gpa + off) (Bytes.make 64 'x'));
    ]
  in
  List.iter
    (fun (name, via_view, via_vm) ->
      let expected = ept_fault via_vm in
      Alcotest.(check bool) (label ^ ": " ^ name ^ " faults") true (expected <> None);
      Alcotest.check fault_t (label ^ ": " ^ name ^ " same fault") expected
        (ept_fault via_view))
    pairs

(* Touch every accessor so both the read and the write caches are warm. *)
let warm view =
  Shared_page.write_u32 view ~offset:8 0x5a5a;
  ignore (Shared_page.read_u32 view ~offset:8);
  Shared_page.write_u64 view ~offset:16 7L;
  ignore (Shared_page.read_u64 view ~offset:16);
  Shared_page.write view ~offset:64 (Bytes.of_string "slot");
  ignore (Shared_page.read view ~offset:64 ~len:4)

let check_view_works label view =
  Shared_page.write_u32 view ~offset:8 0x1234;
  Alcotest.(check int) (label ^ ": access works again") 0x1234
    (Shared_page.read_u32 view ~offset:8)

let test_shared_page_cache_revocation () =
  let hyp = make_hyp () in
  let a = Hyp.create_vm hyp ~name:"a" ~kind:Vm.Guest ~mem_bytes:mib in
  let page = Shared_page.allocate (Hyp.phys hyp) in
  let gpa = Shared_page.map_into page a ~perms:Memory.Perm.rw in
  let view = Shared_page.view_of page a in
  let ept = Vm.ept a in
  (* permissions stripped to none, then restored *)
  warm view;
  Memory.Ept.set_perms ept ~gpa ~perms:Memory.Perm.none;
  check_view_faults_like_vm "perms none" a view ~gpa;
  Memory.Ept.set_perms ept ~gpa ~perms:Memory.Perm.rw;
  check_view_works "perms restored" view;
  (* read-only: reads keep working, writes fault *)
  warm view;
  Memory.Ept.set_perms ept ~gpa ~perms:Memory.Perm.r;
  Alcotest.(check int) "read-only: read still works" 0x5a5a
    (Shared_page.read_u32 view ~offset:8);
  Alcotest.check fault_t "read-only: write faults as uncached"
    (ept_fault (fun () -> Vm.write_gpa_u32 a ~gpa:(gpa + 8) 1))
    (ept_fault (fun () -> Shared_page.write_u32 view ~offset:8 1));
  Memory.Ept.set_perms ept ~gpa ~perms:Memory.Perm.rw;
  check_view_works "write restored" view;
  (* unmapped, then mapped back onto the same frame *)
  warm view;
  let spa =
    match Memory.Ept.lookup ept ~gpa with Some (spa, _) -> spa | None -> assert false
  in
  Alcotest.(check bool) "unmapped" true (Memory.Ept.unmap ept ~gpa);
  check_view_faults_like_vm "unmapped" a view ~gpa;
  Memory.Ept.map ept ~gpa ~spa ~perms:Memory.Perm.rw;
  check_view_works "remapped" view

let test_shared_page_cache_region_assignment () =
  let hyp = make_hyp () in
  let driver = Hyp.create_vm hyp ~name:"driver" ~kind:Vm.Driver ~mem_bytes:(4 * mib) in
  let g = Hyp.create_vm hyp ~name:"g" ~kind:Vm.Guest ~mem_bytes:mib in
  let page = Shared_page.allocate (Hyp.phys hyp) in
  let gpa = Shared_page.map_into page driver ~perms:Memory.Perm.rw in
  let view = Shared_page.view_of page driver in
  warm view;
  (* the page's frame is donated to a protected region: the driver VM
     loses CPU access, whatever it had cached *)
  let vram = Memory.Phys_mem.alloc_frames (Hyp.phys hyp) 1 in
  Memory.Ept.map (Vm.ept driver)
    ~gpa:(Memory.Allocator.reserve_unused driver.Vm.gpa_alloc)
    ~spa:(Memory.Addr.of_pfn vram) ~perms:Memory.Perm.rw;
  let (_ : Region.t) =
    Region.create hyp ~driver_vm:driver ~iommu:(Memory.Iommu.create ~name:"dev")
      ~owners:[ g ]
      ~pool_spns:[ [ Shared_page.spn page ] ]
      ~dev_mem:(Memory.Addr.of_pfn vram, 1)
  in
  check_view_faults_like_vm "protected region" driver view ~gpa;
  Memory.Ept.set_perms (Vm.ept driver) ~gpa ~perms:Memory.Perm.rw;
  check_view_works "region perms restored" view

let test_shared_page_cache_kill_flushes () =
  let hyp = make_hyp () in
  let a = Hyp.create_vm hyp ~name:"a" ~kind:Vm.Guest ~mem_bytes:mib in
  let page = Shared_page.allocate (Hyp.phys hyp) in
  let (_ : int) = Shared_page.map_into page a ~perms:Memory.Perm.rw in
  let view = Shared_page.view_of page a in
  let stats = Memory.Tlb.stats (Vm.tlb a) in
  warm view;
  let walks = stats.Memory.Tlb.walks and misses = stats.Memory.Tlb.misses in
  ignore (Shared_page.read_u32 view ~offset:8);
  Alcotest.(check int) "warm access does not walk" walks stats.Memory.Tlb.walks;
  Hyp.kill_vm hyp a;
  ignore (Shared_page.read_u32 view ~offset:8);
  Alcotest.(check int) "after kill_vm the next access walks" (walks + 1)
    stats.Memory.Tlb.walks;
  Alcotest.(check int) "and misses" (misses + 1) stats.Memory.Tlb.misses

(* The same accesses through a view and through the VM's plain
   accessors leave identical TLB counters: a frame-cache hit stands
   for exactly one TLB hit. *)
let test_shared_page_cache_counter_parity () =
  let run via_view =
    let hyp = make_hyp () in
    let a = Hyp.create_vm hyp ~name:"a" ~kind:Vm.Guest ~mem_bytes:mib in
    let page = Shared_page.allocate ~pages:2 (Hyp.phys hyp) in
    let gpa = Shared_page.map_into page a ~perms:Memory.Perm.rw in
    let view = Shared_page.view_of page a in
    let r32 off =
      if via_view then Shared_page.read_u32 view ~offset:off
      else Vm.read_gpa_u32 a ~gpa:(gpa + off)
    and w32 off v =
      if via_view then Shared_page.write_u32 view ~offset:off v
      else Vm.write_gpa_u32 a ~gpa:(gpa + off) v
    and r64 off =
      if via_view then Shared_page.read_u64 view ~offset:off
      else Vm.read_gpa_u64 a ~gpa:(gpa + off)
    and w64 off v =
      if via_view then Shared_page.write_u64 view ~offset:off v
      else Vm.write_gpa_u64 a ~gpa:(gpa + off) v
    and rd off len =
      if via_view then Shared_page.read view ~offset:off ~len
      else Vm.read_gpa a ~gpa:(gpa + off) ~len
    and wr off data =
      if via_view then Shared_page.write view ~offset:off data
      else Vm.write_gpa a ~gpa:(gpa + off) data
    in
    let page_size = Memory.Addr.page_size in
    let seen = ref [] in
    let note v = seen := v :: !seen in
    w32 0 1;
    note (r32 0);
    w32 (page_size + 4) 2;
    note (r32 (page_size + 4));
    for i = 0 to 9 do
      w32 (8 * i) i;
      note (r32 (8 * i))
    done;
    w64 64 42L;
    note (Int64.to_int (r64 64));
    (* page-straddling scalar and slot copies *)
    w32 (page_size - 2) 0xabcd;
    note (r32 (page_size - 2));
    wr (page_size - 512) (Bytes.make 1024 'q');
    note (Bytes.length (rd (page_size - 512) 1024));
    (* a mapping change, then a flush *)
    Memory.Ept.set_perms (Vm.ept a) ~gpa ~perms:Memory.Perm.rw;
    note (r32 0);
    w32 0 3;
    Vm.flush_tlb a;
    note (r32 (page_size + 4));
    note (r32 0);
    (* the uncached ablation, then back *)
    Memory.Tlb.set_enabled (Vm.tlb a) false;
    w32 0 4;
    note (r32 0);
    Memory.Tlb.set_enabled (Vm.tlb a) true;
    note (r32 0);
    w32 4 5;
    let s = Memory.Tlb.stats (Vm.tlb a) in
    (List.rev !seen, (s.Memory.Tlb.hits, s.Memory.Tlb.misses, s.Memory.Tlb.walks))
  in
  let view_values, view_stats = run true and vm_values, vm_stats = run false in
  Alcotest.(check (list int)) "same values" vm_values view_values;
  Alcotest.(check (triple int int int)) "same hits, misses, walks" vm_stats view_stats

(* ---- device views: the IOMMU generation stamps the frame cache ---- *)

let iommu_fault f =
  match f () with _ -> false | exception Memory.Fault.Iommu_fault _ -> true

let device_setup () =
  let hyp = make_hyp () in
  let phys = Hyp.phys hyp in
  let page = Shared_page.allocate ~pages:2 phys in
  let iommu = Memory.Iommu.create ~name:"nic" in
  let dma = 0x4000_0000 in
  Shared_page.map_dma page iommu ~dma ~perms:Memory.Perm.rw;
  let hv = Shared_page.hypervisor_view page in
  Shared_page.write hv ~offset:0 (Bytes.of_string "ring page zero");
  (phys, page, iommu, dma, Shared_page.device_view page iommu ~dma)

let test_device_view_unmap_faults () =
  let _, _, iommu, dma, view = device_setup () in
  Alcotest.(check string) "reads the ring" "ring page zero"
    (Bytes.to_string (Shared_page.read view ~offset:0 ~len:14));
  Alcotest.(check int) "scalar read" 0x676e6972 (Shared_page.read_u32 view ~offset:0);
  Memory.Iommu.unmap iommu ~dma;
  Alcotest.(check bool) "read of the unmapped page faults" true
    (iommu_fault (fun () -> Shared_page.read view ~offset:0 ~len:14));
  Alcotest.(check bool) "scalar read faults" true
    (iommu_fault (fun () -> Shared_page.read_u32 view ~offset:0));
  Alcotest.(check bool) "as the uncached DMA does" true
    (iommu_fault (fun () -> Memory.Iommu.translate iommu ~dma ~access:Memory.Perm.Read));
  Alcotest.(check int) "the other page still reads" 0
    (Shared_page.read_u32 view ~offset:Memory.Addr.page_size)

let test_device_view_remap_reads_new_frame () =
  let phys, page, iommu, dma, view = device_setup () in
  Alcotest.(check string) "reads the ring" "ring page zero"
    (Bytes.to_string (Shared_page.read view ~offset:0 ~len:14));
  Shared_page.write_u32 view ~offset:16 7;
  let other = Memory.Phys_mem.alloc_frame phys in
  Memory.Phys_mem.write phys ~spa:(Memory.Addr.of_pfn other) (Bytes.of_string "another frame!");
  Memory.Iommu.map iommu ~dma ~spa:(Memory.Addr.of_pfn other) ~perms:Memory.Perm.rw
    ~region:None;
  Alcotest.(check string) "reads the new frame" "another frame!"
    (Bytes.to_string (Shared_page.read view ~offset:0 ~len:14));
  Shared_page.write_u32 view ~offset:16 9;
  Alcotest.(check int) "writes land in the new frame" 9
    (Memory.Phys_mem.read_u32 phys ~spa:(Memory.Addr.of_pfn other + 16));
  Alcotest.(check int) "not in the old one" 7
    (Shared_page.read_u32 (Shared_page.hypervisor_view page) ~offset:16);
  (* read-only: reads work, writes fault as the uncached DMA would *)
  Memory.Iommu.map iommu ~dma ~spa:(Memory.Addr.of_pfn other) ~perms:Memory.Perm.r
    ~region:None;
  Alcotest.(check int) "read-only page reads" 9 (Shared_page.read_u32 view ~offset:16);
  Alcotest.(check bool) "read-only page refuses writes" true
    (iommu_fault (fun () -> Shared_page.write_u32 view ~offset:16 1))

(* ---- find_u32: one resolution per scan, per-word counters ---- *)

(* The per-word loop [find_u32] replaces. *)
let find_by_words view ~offset ~stride ~count ~start ~n ~value =
  let rec go k =
    if k >= n then -1
    else
      let i = (start + k) mod count in
      if Shared_page.read_u32 view ~offset:(offset + (i * stride)) = value then i
      else go (k + 1)
  in
  go 0

let test_find_u32_counter_parity () =
  let page_size = Memory.Addr.page_size in
  let run find =
    let hyp = make_hyp () in
    let a = Hyp.create_vm hyp ~name:"a" ~kind:Vm.Guest ~mem_bytes:mib in
    let page = Shared_page.allocate ~pages:2 (Hyp.phys hyp) in
    let (_ : int) = Shared_page.map_into page a ~perms:Memory.Perm.rw in
    let view = Shared_page.view_of page a in
    let hv = Shared_page.hypervisor_view page in
    (* state words: 3 at index 5 of the first table, 3 at index 1 of
       one straddling the page boundary, with a word across it *)
    Shared_page.write_u32 hv ~offset:(5 * 4) 3;
    Shared_page.write_u32 hv ~offset:(page_size - 10 + 4) 3;
    Shared_page.write_u32 hv ~offset:(page_size - 2) 8;
    let seen = ref [] in
    let scan ~offset ~stride ~count ~start ~n ~value =
      seen := find view ~offset ~stride ~count ~start ~n ~value :: !seen
    in
    let cases () =
      (* found; missing; found before the cursor after wrapping *)
      scan ~offset:0 ~stride:4 ~count:16 ~start:0 ~n:16 ~value:3;
      scan ~offset:0 ~stride:4 ~count:16 ~start:0 ~n:16 ~value:2;
      scan ~offset:0 ~stride:4 ~count:16 ~start:9 ~n:16 ~value:3;
      scan ~offset:0 ~stride:4 ~count:16 ~start:9 ~n:7 ~value:3;
      scan ~offset:0 ~stride:4 ~count:16 ~start:6 ~n:10 ~value:0;
      (* a range across the page boundary: words in both pages and one
         straddling it *)
      scan ~offset:(page_size - 10) ~stride:4 ~count:6 ~start:0 ~n:6 ~value:8;
      scan ~offset:(page_size - 10) ~stride:4 ~count:6 ~start:3 ~n:6 ~value:3;
      scan ~offset:(page_size - 10) ~stride:4 ~count:6 ~start:0 ~n:6 ~value:99;
      scan ~offset:(page_size - 12) ~stride:8 ~count:4 ~start:2 ~n:4 ~value:99;
      scan ~offset:0 ~stride:4 ~count:16 ~start:0 ~n:0 ~value:3
    in
    cases ();
    cases ();
    Vm.flush_tlb a;
    cases ();
    Memory.Tlb.set_enabled (Vm.tlb a) false;
    cases ();
    Memory.Tlb.set_enabled (Vm.tlb a) true;
    cases ();
    let s = Memory.Tlb.stats (Vm.tlb a) in
    (List.rev !seen, (s.Memory.Tlb.hits, s.Memory.Tlb.misses, s.Memory.Tlb.walks))
  in
  let scan_values, scan_stats = run Shared_page.find_u32
  and word_values, word_stats = run find_by_words in
  Alcotest.(check (list int)) "same slots" word_values scan_values;
  Alcotest.(check bool) "slots found" true
    (List.filteri (fun i _ -> i < 10) scan_values = [ 5; -1; 5; -1; 6; 2; 1; -1; -1; -1 ]);
  Alcotest.(check (triple int int int)) "same hits, misses, walks" word_stats scan_stats

let test_find_u32_faults_like_read () =
  let hyp = make_hyp () in
  let a = Hyp.create_vm hyp ~name:"a" ~kind:Vm.Guest ~mem_bytes:mib in
  let page = Shared_page.allocate (Hyp.phys hyp) in
  let gpa = Shared_page.map_into page a ~perms:Memory.Perm.rw in
  let view = Shared_page.view_of page a in
  let find () = Shared_page.find_u32 view ~offset:0 ~stride:4 ~count:8 ~start:0 ~n:8 ~value:1 in
  Alcotest.(check int) "nothing ready" (-1) (find ());
  Memory.Ept.set_perms (Vm.ept a) ~gpa ~perms:Memory.Perm.none;
  Alcotest.check fault_t "a revoked page faults as read_u32 does"
    (ept_fault (fun () -> Vm.read_gpa_u32 a ~gpa))
    (ept_fault find);
  Alcotest.(check bool) "out of range" true
    (match Shared_page.find_u32 view ~offset:0 ~stride:4 ~count:8 ~start:8 ~n:1 ~value:1 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_interrupt_latency () =
  let eng = Sim.Engine.create () in
  let ch = Interrupt.create eng ~latency_us:17.5 in
  let fired_at = ref nan in
  Interrupt.bind ch Interrupt.B (fun () -> fired_at := Sim.Engine.now eng);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.wait 10.;
      Interrupt.send ch ~from:Interrupt.A);
  Sim.Engine.run eng;
  Alcotest.(check (float 1e-9)) "delivered after latency" 27.5 !fired_at;
  Alcotest.(check int) "counted" 1 (Interrupt.sent_count ch)

let test_interrupt_directionality () =
  let eng = Sim.Engine.create () in
  let ch = Interrupt.create eng ~latency_us:1. in
  let a_count = ref 0 and b_count = ref 0 in
  Interrupt.bind ch Interrupt.A (fun () -> incr a_count);
  Interrupt.bind ch Interrupt.B (fun () -> incr b_count);
  Sim.Engine.spawn eng (fun () ->
      Interrupt.send ch ~from:Interrupt.A;
      Interrupt.send ch ~from:Interrupt.A;
      Interrupt.send ch ~from:Interrupt.B);
  Sim.Engine.run eng;
  Alcotest.(check int) "B got two" 2 !b_count;
  Alcotest.(check int) "A got one" 1 !a_count

(* ---- grant tables ---- *)

let test_grant_declare_lookup () =
  let hyp = make_hyp () in
  let guest = Hyp.create_vm hyp ~name:"g" ~kind:Vm.Guest ~mem_bytes:mib in
  let table = Hyp.setup_grant_table hyp guest in
  let ops =
    [
      Grant_table.Copy_from_user { addr = 0x1000; len = 64 };
      Grant_table.Copy_to_user { addr = 0x2000; len = 128 };
    ]
  in
  let r = Grant_table.declare table ops in
  Alcotest.(check int) "group read back" 2 (List.length (Grant_table.lookup table r));
  Alcotest.(check bool) "exact op authorised" true
    (Grant_table.authorises table ~grant_ref:r
       ~requested:(Grant_table.Copy_from_user { addr = 0x1000; len = 64 }));
  Alcotest.(check bool) "sub-range authorised" true
    (Grant_table.authorises table ~grant_ref:r
       ~requested:(Grant_table.Copy_to_user { addr = 0x2010; len = 8 }));
  Alcotest.(check bool) "overrun rejected" false
    (Grant_table.authorises table ~grant_ref:r
       ~requested:(Grant_table.Copy_from_user { addr = 0x1000; len = 65 }));
  Alcotest.(check bool) "wrong direction rejected" false
    (Grant_table.authorises table ~grant_ref:r
       ~requested:(Grant_table.Copy_to_user { addr = 0x1000; len = 64 }))

let test_grant_release_reuse () =
  let hyp = make_hyp () in
  let guest = Hyp.create_vm hyp ~name:"g" ~kind:Vm.Guest ~mem_bytes:mib in
  let table = Hyp.setup_grant_table hyp guest in
  let r1 = Grant_table.declare table [ Grant_table.Copy_to_user { addr = 0; len = 8 } ] in
  Grant_table.release table r1;
  let r2 = Grant_table.declare table [ Grant_table.Copy_to_user { addr = 8; len = 8 } ] in
  Alcotest.(check int) "slot reused after release" r1 r2;
  Alcotest.(check bool) "old grant no longer authorises" false
    (Grant_table.authorises table ~grant_ref:r1
       ~requested:(Grant_table.Copy_to_user { addr = 0; len = 8 }))

let test_grant_table_full () =
  let hyp = make_hyp () in
  let guest = Hyp.create_vm hyp ~name:"g" ~kind:Vm.Guest ~mem_bytes:mib in
  let table = Hyp.setup_grant_table hyp guest in
  Alcotest.check_raises "capacity enforced" Grant_table.Table_full (fun () ->
      for i = 0 to Grant_table.capacity do
        ignore
          (Grant_table.declare table
             [ Grant_table.Copy_to_user { addr = i * 16; len = 16 } ])
      done)

(* ---- memory-operation API ---- *)

let driver_and_guest () =
  let hyp = make_hyp () in
  let driver = Hyp.create_vm hyp ~name:"driver" ~kind:Vm.Driver ~mem_bytes:(4 * mib) in
  let guest, pt = make_guest_with_process hyp in
  let table = Hyp.setup_grant_table hyp guest in
  (hyp, driver, guest, pt, table)

let test_copy_roundtrip_via_api () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  Vm.write_gva guest ~pt ~gva:0x1100 (Bytes.of_string "app->driver");
  let r =
    Grant_table.declare table
      [
        Grant_table.Copy_from_user { addr = 0x1100; len = 11 };
        Grant_table.Copy_to_user { addr = 0x2100; len = 11 };
      ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let data = Hyp.copy_from_process hyp req ~gva:0x1100 ~len:11 in
  Alcotest.(check string) "driver read app buffer" "app->driver" (Bytes.to_string data);
  Hyp.copy_to_process hyp req ~gva:0x2100 ~data:(Bytes.of_string "driver->app");
  Alcotest.(check string) "app sees driver reply" "driver->app"
    (Bytes.to_string (Vm.read_gva guest ~pt ~gva:0x2100 ~len:11))

let test_undeclared_copy_rejected () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let r =
    Grant_table.declare table [ Grant_table.Copy_from_user { addr = 0x1000; len = 16 } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let rejected_before = (Hyp.audit hyp).Audit.grants_rejected in
  Alcotest.(check bool) "copy outside declaration rejected" true
    (match Hyp.copy_to_process hyp req ~gva:0x1000 ~data:(Bytes.make 16 'x') with
    | () -> false
    | exception Hyp.Rejected _ -> true);
  Alcotest.(check int) "rejection audited" (rejected_before + 1)
    (Hyp.audit hyp).Audit.grants_rejected

let test_attack_copy_to_guest_kernel () =
  (* The §4.1 attack: a compromised driver VM asks the hypervisor to
     write into a sensitive guest address never declared by the
     frontend. *)
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let r =
    Grant_table.declare table [ Grant_table.Copy_to_user { addr = 0x2000; len = 64 } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  Alcotest.(check bool) "write to guest kernel address blocked" true
    (match
       Hyp.copy_to_process hyp req ~gva:0xC0000000 ~data:(Bytes.make 8 '\xcc')
     with
    | () -> false
    | exception Hyp.Rejected _ -> true)

let test_guest_cannot_call_api () =
  let hyp, _driver, guest, pt, table = driver_and_guest () in
  let r =
    Grant_table.declare table [ Grant_table.Copy_from_user { addr = 0x1000; len = 4 } ]
  in
  let req = { Hyp.caller = guest; target = guest; pt; grant_ref = r } in
  Alcotest.(check bool) "non-driver caller refused" true
    (match Hyp.copy_from_process hyp req ~gva:0x1000 ~len:4 with
    | _ -> false
    | exception Hyp.Rejected _ -> true)

let test_map_page_into_process () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  (* a "device" page the driver wants to expose to the app *)
  let dev_spn = Memory.Phys_mem.alloc_frame (Hyp.phys hyp) in
  Memory.Phys_mem.write (Hyp.phys hyp) ~spa:(Memory.Addr.of_pfn dev_spn)
    (Bytes.of_string "framebuffer!");
  let gva = 0x40000000 in
  let r =
    Grant_table.declare table
      [ Grant_table.Map_page { addr = gva; len = Memory.Addr.page_size } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  (* frontend prepares intermediate levels first (§5.2) *)
  Memory.Guest_pt.prepare_range pt ~gva ~len:Memory.Addr.page_size;
  Hyp.map_page_into_process hyp req ~gva ~spa:(Memory.Addr.of_pfn dev_spn)
    ~perms:Memory.Perm.rw;
  Alcotest.(check string) "app reads device page through its va" "framebuffer!"
    (Bytes.to_string (Vm.read_gva guest ~pt ~gva ~len:12));
  Vm.write_gva guest ~pt ~gva:(gva + 100) (Bytes.of_string "app-write");
  Alcotest.(check string) "app writes reach the device page" "app-write"
    (Bytes.to_string
       (Memory.Phys_mem.read (Hyp.phys hyp)
          ~spa:(Memory.Addr.of_pfn dev_spn + 100)
          ~len:9));
  Alcotest.(check bool) "registry knows the mapping" true
    (Hyp.mapped_via_hypervisor hyp ~target:guest ~pt ~gva);
  Hyp.unmap_page_from_process hyp req ~gva;
  Alcotest.(check (option int)) "va no longer translates" None
    (Memory.Guest_pt.translate_opt pt ~gva ~access:Memory.Perm.Read)

let test_map_page_requires_prepared_levels () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let gva = 0x50000000 in
  let r =
    Grant_table.declare table
      [ Grant_table.Map_page { addr = gva; len = Memory.Addr.page_size } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  Alcotest.(check bool) "unprepared levels rejected" true
    (match Hyp.map_page_into_process hyp req ~gva ~spa:0x1000 ~perms:Memory.Perm.rw with
    | () -> false
    | exception Hyp.Rejected _ -> true)

let test_map_page_undeclared_gva_rejected () =
  let hyp, driver, guest, pt, table = driver_and_guest () in
  let r =
    Grant_table.declare table
      [ Grant_table.Map_page { addr = 0x40000000; len = Memory.Addr.page_size } ]
  in
  let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
  let gva = 0x60000000 in
  Memory.Guest_pt.prepare_range pt ~gva ~len:Memory.Addr.page_size;
  Alcotest.(check bool) "mapping at undeclared gva rejected" true
    (match Hyp.map_page_into_process hyp req ~gva ~spa:0x1000 ~perms:Memory.Perm.rw with
    | () -> false
    | exception Hyp.Rejected _ -> true)

(* ---- protected regions ---- *)

let region_fixture () =
  let hyp = make_hyp () in
  let driver = Hyp.create_vm hyp ~name:"driver" ~kind:Vm.Driver ~mem_bytes:(8 * mib) in
  let g1 = Hyp.create_vm hyp ~name:"g1" ~kind:Vm.Guest ~mem_bytes:mib in
  let g2 = Hyp.create_vm hyp ~name:"g2" ~kind:Vm.Guest ~mem_bytes:mib in
  let iommu = Memory.Iommu.create ~name:"gpu" in
  (* the driver donates pool pages out of its own RAM during init *)
  let donate n =
    List.init n (fun _ ->
        let gpa = Vm.alloc_gpa_page driver in
        match Memory.Ept.lookup (Vm.ept driver) ~gpa with
        | Some (spa, _) -> Memory.Addr.pfn spa
        | None -> assert false)
  in
  let pool1 = donate 4 and pool2 = donate 4 in
  (* device memory BAR: 8 pages of "VRAM" *)
  let vram_base_spn = Memory.Phys_mem.alloc_frames (Hyp.phys hyp) 8 in
  let vram_base = Memory.Addr.of_pfn vram_base_spn in
  (* BAR pages are mapped into the driver VM (device assignment) *)
  for i = 0 to 7 do
    let gpa = Memory.Allocator.reserve_unused driver.Vm.gpa_alloc in
    Memory.Ept.map (Vm.ept driver) ~gpa
      ~spa:(Memory.Addr.of_pfn (vram_base_spn + i))
      ~perms:Memory.Perm.rw
  done;
  let mgr =
    Region.create hyp ~driver_vm:driver ~iommu ~owners:[ g1; g2 ]
      ~pool_spns:[ pool1; pool2 ] ~dev_mem:(vram_base, 8)
  in
  (hyp, driver, g1, g2, iommu, mgr, pool1, vram_base)

let test_region_driver_cannot_read_pool () =
  let _hyp, driver, _g1, _g2, _iommu, _mgr, pool1, _vram = region_fixture () in
  (* find the driver-VM gpa of a pool page and try to read it *)
  let spn = List.hd pool1 in
  let gpas = Memory.Ept.gpas_of_spn (Vm.ept driver) spn in
  Alcotest.(check bool) "pool page still mapped (perms stripped, not unmapped)" true
    (gpas <> []);
  List.iter
    (fun gpa ->
      Alcotest.(check bool) "driver CPU read faults" true
        (match Vm.read_gpa driver ~gpa ~len:4 with
        | _ -> false
        | exception Memory.Fault.Ept_violation _ -> true);
      Alcotest.(check bool) "driver CPU write faults" true
        (match Vm.write_gpa driver ~gpa (Bytes.of_string "x") with
        | () -> false
        | exception Memory.Fault.Ept_violation _ -> true))
    gpas

let test_region_driver_cannot_read_vram () =
  let _hyp, driver, _g1, _g2, _iommu, _mgr, _pool, vram = region_fixture () in
  let gpas = Memory.Ept.gpas_of_spn (Vm.ept driver) (Memory.Addr.pfn vram) in
  Alcotest.(check bool) "vram mapped in driver" true (gpas <> []);
  List.iter
    (fun gpa ->
      Alcotest.(check bool) "driver read of vram faults" true
        (match Vm.read_gpa driver ~gpa ~len:4 with
        | _ -> false
        | exception Memory.Fault.Ept_violation _ -> true))
    gpas

let test_region_iommu_map_own_pool_only () =
  let _hyp, _driver, _g1, _g2, _iommu, mgr, pool1, _vram = region_fixture () in
  let own = Memory.Addr.of_pfn (List.hd pool1) in
  Region.request_iommu_map mgr ~rid:0 ~dma:0x10000 ~spa:own ~perms:Memory.Perm.rw;
  (* stealing: region 1 asks to map region 0's page *)
  Alcotest.(check bool) "cross-region map rejected" true
    (match
       Region.request_iommu_map mgr ~rid:1 ~dma:0x20000 ~spa:own ~perms:Memory.Perm.rw
     with
    | () -> false
    | exception Region.Isolation_violation _ -> true)

let test_region_switch_remaps_iommu () =
  let _hyp, _driver, _g1, _g2, iommu, mgr, _pool, _vram = region_fixture () in
  let p0 = Region.alloc_protected_page mgr ~rid:0 in
  let p1 = Region.alloc_protected_page mgr ~rid:1 in
  Region.request_iommu_map mgr ~rid:0 ~dma:0x10000 ~spa:p0 ~perms:Memory.Perm.rw;
  Region.request_iommu_map mgr ~rid:1 ~dma:0x20000 ~spa:p1 ~perms:Memory.Perm.rw;
  let (_ : int) = Region.switch_region mgr ~rid:0 in
  Alcotest.(check int) "region 0 dma live" p0
    (Memory.Iommu.translate iommu ~dma:0x10000 ~access:Memory.Perm.Read);
  Alcotest.(check bool) "region 1 dma dead while 0 active" true
    (match Memory.Iommu.translate iommu ~dma:0x20000 ~access:Memory.Perm.Read with
    | _ -> false
    | exception Memory.Fault.Iommu_fault _ -> true);
  let touched = Region.switch_region mgr ~rid:1 in
  Alcotest.(check int) "switch touched both mappings" 2 touched;
  Alcotest.(check int) "region 1 dma live" p1
    (Memory.Iommu.translate iommu ~dma:0x20000 ~access:Memory.Perm.Read);
  Alcotest.(check bool) "region 0 dma dead after switch" true
    (match Memory.Iommu.translate iommu ~dma:0x10000 ~access:Memory.Perm.Read with
    | _ -> false
    | exception Memory.Fault.Iommu_fault _ -> true)

let test_region_free_scrubs () =
  let hyp, _driver, _g1, _g2, _iommu, mgr, _pool, _vram = region_fixture () in
  let spa = Region.alloc_protected_page mgr ~rid:0 in
  Memory.Phys_mem.write (Hyp.phys hyp) ~spa (Bytes.of_string "guest secret");
  Region.free_protected_page mgr ~rid:0 ~spa;
  Alcotest.(check string) "page scrubbed on free" (String.make 12 '\000')
    (Bytes.to_string (Memory.Phys_mem.read (Hyp.phys hyp) ~spa ~len:12))

let test_region_dev_mem_hypercalls () =
  let _hyp, _driver, _g1, _g2, _iommu, mgr, _pool, vram = region_fixture () in
  let base0, pages0 = Region.dev_slice mgr 0 in
  Alcotest.(check int) "slice 0 starts at vram base" vram base0;
  Alcotest.(check int) "even split" 4 pages0;
  Region.hyp_write_dev_mem mgr ~rid:0 ~spa:base0 ~data:(Bytes.of_string "gpu-pt");
  Alcotest.(check string) "write visible via read hypercall" "gpu-pt"
    (Bytes.to_string (Region.hyp_read_dev_mem mgr ~rid:0 ~spa:base0 ~len:6));
  (* writing into region 1's slice with rid 0 must fail *)
  let base1, _ = Region.dev_slice mgr 1 in
  Alcotest.(check bool) "cross-slice write rejected" true
    (match Region.hyp_write_dev_mem mgr ~rid:0 ~spa:base1 ~data:(Bytes.make 1 'x') with
    | () -> false
    | exception Region.Isolation_violation _ -> true)

(* ---- property tests ---- *)

let prop_grant_authorisation_sound =
  QCheck.Test.make ~name:"grant authorises exactly declared sub-ranges" ~count:300
    QCheck.(
      quad (int_bound 0xffff) (int_range 1 256) (int_bound 0xffff) (int_range 1 512))
    (fun (decl_addr, decl_len, req_addr, req_len) ->
      let hyp = make_hyp () in
      let guest = Hyp.create_vm hyp ~name:"g" ~kind:Vm.Guest ~mem_bytes:mib in
      let table = Hyp.setup_grant_table hyp guest in
      let r =
        Grant_table.declare table
          [ Grant_table.Copy_to_user { addr = decl_addr; len = decl_len } ]
      in
      let granted =
        Grant_table.authorises table ~grant_ref:r
          ~requested:(Grant_table.Copy_to_user { addr = req_addr; len = req_len })
      in
      let expected =
        req_addr >= decl_addr && req_addr + req_len <= decl_addr + decl_len
      in
      granted = expected)

let prop_copy_api_identity =
  QCheck.Test.make ~name:"copy_from(copy_to(x)) = x under valid grants" ~count:100
    QCheck.(string_of_size Gen.(1 -- 2048))
    (fun payload ->
      QCheck.assume (String.length payload > 0);
      let hyp, driver, guest, pt, table = driver_and_guest () in
      let len = String.length payload in
      QCheck.assume (len <= 8 * Memory.Addr.page_size - 0x100);
      let gva = 0x1080 in
      let r =
        Grant_table.declare table
          [
            Grant_table.Copy_to_user { addr = gva; len };
            Grant_table.Copy_from_user { addr = gva; len };
          ]
      in
      let req = { Hyp.caller = driver; target = guest; pt; grant_ref = r } in
      Hyp.copy_to_process hyp req ~gva ~data:(Bytes.of_string payload);
      Bytes.to_string (Hyp.copy_from_process hyp req ~gva ~len) = payload)

let suites =
  [
    ( "hypervisor.vm",
      [
        Alcotest.test_case "vm ram" `Quick test_create_vm_ram;
        Alcotest.test_case "vm ram isolation" `Quick test_vm_isolated_ram;
        Alcotest.test_case "gva access" `Quick test_gva_access;
      ] );
    ( "hypervisor.shared_page",
      [
        Alcotest.test_case "two-vm sharing" `Quick test_shared_page_two_vms;
        Alcotest.test_case "ept perms respected" `Quick test_shared_page_respects_ept_perms;
        Alcotest.test_case "frame cache follows revocation" `Quick
          test_shared_page_cache_revocation;
        Alcotest.test_case "frame cache follows region assignment" `Quick
          test_shared_page_cache_region_assignment;
        Alcotest.test_case "frame cache walks after kill_vm" `Quick
          test_shared_page_cache_kill_flushes;
        Alcotest.test_case "frame cache keeps tlb counters" `Quick
          test_shared_page_cache_counter_parity;
        Alcotest.test_case "device view faults after unmap" `Quick
          test_device_view_unmap_faults;
        Alcotest.test_case "device view follows remap" `Quick
          test_device_view_remap_reads_new_frame;
        Alcotest.test_case "find_u32 keeps tlb counters" `Quick test_find_u32_counter_parity;
        Alcotest.test_case "find_u32 faults like read_u32" `Quick
          test_find_u32_faults_like_read;
      ] );
    ( "hypervisor.interrupt",
      [
        Alcotest.test_case "latency" `Quick test_interrupt_latency;
        Alcotest.test_case "directionality" `Quick test_interrupt_directionality;
      ] );
    ( "hypervisor.grant_table",
      [
        Alcotest.test_case "declare/lookup/authorise" `Quick test_grant_declare_lookup;
        Alcotest.test_case "release and reuse" `Quick test_grant_release_reuse;
        Alcotest.test_case "table full" `Quick test_grant_table_full;
        QCheck_alcotest.to_alcotest prop_grant_authorisation_sound;
      ] );
    ( "hypervisor.memory_ops",
      [
        Alcotest.test_case "copy round trip" `Quick test_copy_roundtrip_via_api;
        Alcotest.test_case "undeclared copy rejected" `Quick test_undeclared_copy_rejected;
        Alcotest.test_case "attack: copy to guest kernel" `Quick test_attack_copy_to_guest_kernel;
        Alcotest.test_case "guest cannot call api" `Quick test_guest_cannot_call_api;
        Alcotest.test_case "map page into process" `Quick test_map_page_into_process;
        Alcotest.test_case "map requires prepared levels" `Quick test_map_page_requires_prepared_levels;
        Alcotest.test_case "map at undeclared gva rejected" `Quick test_map_page_undeclared_gva_rejected;
        QCheck_alcotest.to_alcotest prop_copy_api_identity;
      ] );
    ( "hypervisor.regions",
      [
        Alcotest.test_case "driver cannot read pool" `Quick test_region_driver_cannot_read_pool;
        Alcotest.test_case "driver cannot read vram" `Quick test_region_driver_cannot_read_vram;
        Alcotest.test_case "iommu map own pool only" `Quick test_region_iommu_map_own_pool_only;
        Alcotest.test_case "switch remaps iommu" `Quick test_region_switch_remaps_iommu;
        Alcotest.test_case "free scrubs page" `Quick test_region_free_scrubs;
        Alcotest.test_case "dev-mem hypercalls bounded" `Quick test_region_dev_mem_hypercalls;
      ] );
  ]
