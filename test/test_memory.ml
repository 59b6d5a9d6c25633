(* Tests for the memory-virtualization substrate. *)

open Memory

let test_addr_arithmetic () =
  Alcotest.(check int) "pfn" 2 (Addr.pfn 0x2abc);
  Alcotest.(check int) "offset" 0xabc (Addr.offset 0x2abc);
  Alcotest.(check int) "of_pfn" 0x2000 (Addr.of_pfn 2);
  Alcotest.(check bool) "aligned" true (Addr.is_page_aligned 0x3000);
  Alcotest.(check bool) "unaligned" false (Addr.is_page_aligned 0x3001);
  Alcotest.(check int) "align_up" 0x4000 (Addr.align_up 0x3001);
  Alcotest.(check int) "align_up exact" 0x3000 (Addr.align_up 0x3000);
  Alcotest.(check int) "span one page" 1 (Addr.pages_spanned ~addr:0x1000 ~len:4096);
  Alcotest.(check int) "span crosses boundary" 2 (Addr.pages_spanned ~addr:0x1fff ~len:2);
  Alcotest.(check int) "span zero" 0 (Addr.pages_spanned ~addr:0x1000 ~len:0)

let test_page_chunks () =
  let chunks = Addr.page_chunks ~addr:0x1ffe ~len:10 in
  Alcotest.(check (list (pair int int))) "chunks split at page boundary"
    [ (0x1ffe, 2); (0x2000, 8) ] chunks;
  let total = List.fold_left (fun acc (_, l) -> acc + l) 0 chunks in
  Alcotest.(check int) "chunk lengths sum" 10 total

let test_perm_lattice () =
  Alcotest.(check bool) "rw allows read" true Perm.(allows rw Read);
  Alcotest.(check bool) "rw allows write" true Perm.(allows rw Write);
  Alcotest.(check bool) "rw denies exec" false Perm.(allows rw Exec);
  Alcotest.(check bool) "r subsumed by rw" true Perm.(subsumes rw r);
  Alcotest.(check bool) "rw not subsumed by r" false Perm.(subsumes r rw);
  Alcotest.(check bool) "without_read" false Perm.(allows (without_read rw) Read)

let test_phys_mem_rw () =
  let mem = Phys_mem.create () in
  let base = Phys_mem.alloc_frames mem 4 in
  let spa = Addr.of_pfn base + 100 in
  Phys_mem.write mem ~spa (Bytes.of_string "hello world");
  Alcotest.(check string) "round trip" "hello world"
    (Bytes.to_string (Phys_mem.read mem ~spa ~len:11))

let test_phys_mem_cross_frame () =
  let mem = Phys_mem.create () in
  let base = Phys_mem.alloc_frames mem 2 in
  let spa = Addr.of_pfn base + Addr.page_size - 3 in
  Phys_mem.write mem ~spa (Bytes.of_string "abcdef");
  Alcotest.(check string) "crosses frame boundary" "abcdef"
    (Bytes.to_string (Phys_mem.read mem ~spa ~len:6))

let test_phys_mem_bus_error () =
  let mem = Phys_mem.create () in
  Alcotest.check_raises "unpopulated frame faults"
    (Fault.Bus_error
       {
         Fault.space = Fault.System_physical;
         addr = Addr.of_pfn 999;
         access = Perm.Read;
         reason = "unpopulated frame";
       })
    (fun () -> ignore (Phys_mem.read mem ~spa:(Addr.of_pfn 999) ~len:1))

let test_phys_mem_u32_u64 () =
  let mem = Phys_mem.create () in
  let base = Phys_mem.alloc_frame mem in
  let spa = Addr.of_pfn base in
  Phys_mem.write_u32 mem ~spa 0xdeadbeef;
  Alcotest.(check int) "u32 round trip" 0xdeadbeef (Phys_mem.read_u32 mem ~spa);
  Phys_mem.write_u64 mem ~spa:(spa + 8) 0x1122334455667788L;
  Alcotest.(check int64) "u64 round trip" 0x1122334455667788L
    (Phys_mem.read_u64 mem ~spa:(spa + 8))

let test_phys_mem_mmio () =
  let mem = Phys_mem.create () in
  let last_write = ref (0, Bytes.empty) in
  let handler =
    {
      Phys_mem.mmio_read =
        (fun ~offset ~len -> Bytes.make len (Char.chr (offset land 0xff)));
      mmio_write = (fun ~offset data -> last_write := (offset, data));
    }
  in
  let spn = Phys_mem.alloc_mmio mem handler in
  Alcotest.(check bool) "is_mmio" true (Phys_mem.is_mmio mem spn);
  let v = Phys_mem.read mem ~spa:(Addr.of_pfn spn + 0x42) ~len:1 in
  Alcotest.(check int) "mmio read routed" 0x42 (Char.code (Bytes.get v 0));
  Phys_mem.write mem ~spa:(Addr.of_pfn spn + 8) (Bytes.of_string "Z");
  Alcotest.(check int) "mmio write offset" 8 (fst !last_write)

let test_phys_mem_zero_frame () =
  let mem = Phys_mem.create () in
  let spn = Phys_mem.alloc_frame mem in
  Phys_mem.write mem ~spa:(Addr.of_pfn spn) (Bytes.of_string "secret");
  Phys_mem.zero_frame mem spn;
  Alcotest.(check string) "scrubbed" "\000\000\000\000\000\000"
    (Bytes.to_string (Phys_mem.read mem ~spa:(Addr.of_pfn spn) ~len:6))

let test_guest_pt_translate () =
  let pt = Guest_pt.create () in
  Guest_pt.map pt ~gva:0x40000000 ~gpa:0x1000 ~perms:Perm.rw;
  Alcotest.(check int) "translation with offset" 0x1abc
    (Guest_pt.translate pt ~gva:0x40000abc ~access:Perm.Read);
  Alcotest.(check (option int)) "unmapped is None" None
    (Guest_pt.translate_opt pt ~gva:0x50000000 ~access:Perm.Read)

let test_guest_pt_permission_fault () =
  let pt = Guest_pt.create () in
  Guest_pt.map pt ~gva:0x1000 ~gpa:0x2000 ~perms:Perm.r;
  (match Guest_pt.translate pt ~gva:0x1000 ~access:Perm.Write with
  | _ -> Alcotest.fail "expected page fault"
  | exception Fault.Page_fault info ->
      Alcotest.(check string) "reason" "permission denied" info.Fault.reason)

let test_guest_pt_prepare_range () =
  let pt = Guest_pt.create () in
  let gva = 0x7f000000 in
  Alcotest.(check bool) "levels initially missing" false (Guest_pt.leaf_ready pt ~gva);
  Guest_pt.prepare_range pt ~gva ~len:(3 * Addr.page_size);
  Alcotest.(check bool) "intermediate levels created" true (Guest_pt.leaf_ready pt ~gva);
  (* but the leaf itself is still unmapped: that is the hypervisor's job *)
  Alcotest.(check (option int)) "leaf still absent" None
    (Guest_pt.translate_opt pt ~gva ~access:Perm.Read)

let test_guest_pt_32bit_limit () =
  let pt = Guest_pt.create () in
  Alcotest.(check bool) "gva beyond 32-bit rejected" true
    (match Guest_pt.map pt ~gva:0x1_0000_0000 ~gpa:0 ~perms:Perm.r with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_ept_two_level_translation () =
  let pt = Guest_pt.create () in
  let ept = Ept.create () in
  Guest_pt.map pt ~gva:0x10000 ~gpa:0x5000 ~perms:Perm.rw;
  Ept.map ept ~gpa:0x5000 ~spa:0x99000 ~perms:Perm.rwx;
  let gpa = Guest_pt.translate pt ~gva:0x10010 ~access:Perm.Read in
  let spa = Ept.translate ept ~gpa ~access:Perm.Read in
  Alcotest.(check int) "gva -> gpa -> spa" 0x99010 spa

let test_ept_permission_stripping () =
  let ept = Ept.create () in
  Ept.map ept ~gpa:0x5000 ~spa:0x99000 ~perms:Perm.rwx;
  Ept.set_perms ept ~gpa:0x5000 ~perms:Perm.none;
  Alcotest.(check bool) "read now faults" true
    (match Ept.translate ept ~gpa:0x5000 ~access:Perm.Read with
    | _ -> false
    | exception Fault.Ept_violation _ -> true);
  (* hypervisor-internal lookup still sees the mapping *)
  (match Ept.lookup ept ~gpa:0x5000 with
  | Some (spa, perms) ->
      Alcotest.(check int) "mapping intact" 0x99000 spa;
      Alcotest.(check bool) "perms recorded as none" true (Perm.equal perms Perm.none)
  | None -> Alcotest.fail "mapping lost")

let test_ept_set_perms_unmapped () =
  let ept = Ept.create () in
  Alcotest.check_raises "set_perms on absent page" Not_found (fun () ->
      Ept.set_perms ept ~gpa:0x4000 ~perms:Perm.r)

let test_ept_reverse_lookup () =
  let ept = Ept.create () in
  Ept.map ept ~gpa:0x1000 ~spa:0x7000 ~perms:Perm.rw;
  Ept.map ept ~gpa:0x2000 ~spa:0x7000 ~perms:Perm.r;
  Ept.map ept ~gpa:0x3000 ~spa:0x8000 ~perms:Perm.rw;
  let gpas = List.sort compare (Ept.gpas_of_spn ept 7) in
  Alcotest.(check (list int)) "aliases found" [ 0x1000; 0x2000 ] gpas

let test_iommu_basic () =
  let iommu = Iommu.create ~name:"gpu" in
  Iommu.map iommu ~dma:0x4000 ~spa:0xa000 ~perms:Perm.rw ~region:None;
  Alcotest.(check int) "dma translation" 0xa010
    (Iommu.translate iommu ~dma:0x4010 ~access:Perm.Write);
  Alcotest.(check bool) "unmapped faults" true
    (match Iommu.translate iommu ~dma:0x5000 ~access:Perm.Read with
    | _ -> false
    | exception Fault.Iommu_fault _ -> true)

let test_iommu_regions () =
  let iommu = Iommu.create ~name:"gpu" in
  Iommu.map iommu ~dma:0x1000 ~spa:0xa000 ~perms:Perm.rw ~region:(Some 0);
  Iommu.map iommu ~dma:0x2000 ~spa:0xb000 ~perms:Perm.rw ~region:(Some 0);
  Iommu.map iommu ~dma:0x3000 ~spa:0xc000 ~perms:Perm.rw ~region:(Some 1);
  Alcotest.(check int) "region 0 has two pages" 2
    (List.length (Iommu.pfns_of_region iommu 0));
  let dropped = Iommu.unmap_region iommu 0 in
  Alcotest.(check int) "both unmapped" 2 dropped;
  Alcotest.(check bool) "region 0 page gone" true
    (match Iommu.translate iommu ~dma:0x1000 ~access:Perm.Read with
    | _ -> false
    | exception Fault.Iommu_fault _ -> true);
  Alcotest.(check int) "region 1 untouched" 0xc000
    (Iommu.translate iommu ~dma:0x3000 ~access:Perm.Read)

let test_iommu_read_only_dma () =
  (* Emulated write-only buffers (§5.3 change (iv)): device gets
     read-only IOMMU mapping while the driver VM keeps read/write. *)
  let iommu = Iommu.create ~name:"gpu" in
  Iommu.map iommu ~dma:0x1000 ~spa:0xa000 ~perms:Perm.r ~region:None;
  Alcotest.(check int) "device may read" 0xa000
    (Iommu.translate iommu ~dma:0x1000 ~access:Perm.Read);
  Alcotest.(check bool) "device write blocked" true
    (match Iommu.translate iommu ~dma:0x1000 ~access:Perm.Write with
    | _ -> false
    | exception Fault.Iommu_fault _ -> true)

let test_allocator_basic () =
  let a = Allocator.create ~base:0x10000 ~size:(16 * Addr.page_size) in
  let p1 = Allocator.alloc_page a in
  let p2 = Allocator.alloc_page a in
  Alcotest.(check bool) "distinct pages" true (p1 <> p2);
  Allocator.free_page a p1;
  let p3 = Allocator.alloc_page a in
  Alcotest.(check int) "freed page reused" p1 p3

let test_allocator_reserve_unused () =
  let a = Allocator.create ~base:0 ~size:(8 * Addr.page_size) in
  let allocated = List.init 3 (fun _ -> Allocator.alloc_page a) in
  let reserved = Allocator.reserve_unused a in
  Alcotest.(check bool) "reserved not among allocated" true
    (not (List.mem reserved allocated));
  (* exhaust the allocator: it must never hand out the reserved page *)
  let rest = ref [] in
  (try
     while true do
       rest := Allocator.alloc_page a :: !rest
     done
   with Out_of_memory -> ());
  Alcotest.(check bool) "reserved page never allocated" true
    (not (List.mem reserved !rest))

let test_allocator_exhaustion () =
  let a = Allocator.create ~base:0 ~size:(2 * Addr.page_size) in
  let _ = Allocator.alloc_page a in
  let _ = Allocator.alloc_page a in
  Alcotest.check_raises "out of memory" Out_of_memory (fun () ->
      ignore (Allocator.alloc_page a))

let test_radix_node_counting () =
  let t = Radix_table.create ~widths:[ 2; 9; 9 ] in
  Alcotest.(check int) "root only" 1 (Radix_table.node_count t);
  Radix_table.map t ~vfn:0 ~pfn:5 ~perms:Perm.rw;
  Alcotest.(check int) "two more levels created" 3 (Radix_table.node_count t);
  Radix_table.map t ~vfn:1 ~pfn:6 ~perms:Perm.rw;
  Alcotest.(check int) "same tables reused" 3 (Radix_table.node_count t);
  Alcotest.(check int) "two mappings" 2 (Radix_table.mapped_count t)

let test_radix_generation () =
  let t = Radix_table.create ~widths:[ 9; 9; 9 ] in
  let g0 = Radix_table.generation t in
  Radix_table.map t ~vfn:3 ~pfn:9 ~perms:Perm.rw;
  Alcotest.(check bool) "map bumps" true (Radix_table.generation t > g0);
  let g1 = Radix_table.generation t in
  Radix_table.set_perms t ~vfn:3 ~perms:Perm.r;
  Alcotest.(check bool) "set_perms bumps" true (Radix_table.generation t > g1);
  let g2 = Radix_table.generation t in
  Alcotest.(check bool) "unmap of absent vfn is a no-op" false
    (Radix_table.unmap t 77);
  Alcotest.(check int) "failed unmap does not bump" g2 (Radix_table.generation t);
  Alcotest.(check bool) "unmap removes" true (Radix_table.unmap t 3);
  Alcotest.(check bool) "successful unmap bumps" true
    (Radix_table.generation t > g2)

let test_read_into_write_from () =
  let mem = Phys_mem.create () in
  let base = Phys_mem.alloc_frames mem 4 in
  let spa = Addr.of_pfn base + Addr.page_size - 3 in
  (* cross-frame blit out of the middle of a caller buffer *)
  let src = Bytes.of_string "..cross-frame payload.." in
  Phys_mem.write_from mem ~spa ~src ~src_off:2 ~len:19;
  let dst = Bytes.make 24 '#' in
  Phys_mem.read_into mem ~spa ~dst ~dst_off:3 ~len:19;
  Alcotest.(check string) "offset blit round trip" "###cross-frame payload##"
    (Bytes.to_string dst);
  Alcotest.(check bool) "out-of-bounds destination refused" true
    (match Phys_mem.read_into mem ~spa ~dst ~dst_off:20 ~len:19 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "negative length refused" true
    (match Phys_mem.write_from mem ~spa ~src ~src_off:0 ~len:(-1) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_scalars_cross_page_and_mmio () =
  let mem = Phys_mem.create () in
  let base = Phys_mem.alloc_frames mem 2 in
  (* a u32 straddling the frame boundary takes the buffered fallback *)
  let spa = Addr.of_pfn base + Addr.page_size - 2 in
  Phys_mem.write_u32 mem ~spa 0xdeadbeef;
  Alcotest.(check int) "cross-frame u32 round trip" 0xdeadbeef
    (Phys_mem.read_u32 mem ~spa);
  Phys_mem.write_u64 mem ~spa 0x0123456789abcdefL;
  Alcotest.(check int64) "cross-frame u64 round trip" 0x0123456789abcdefL
    (Phys_mem.read_u64 mem ~spa);
  (* scalars on MMIO pages still go through the handler *)
  let backing = Bytes.make Addr.page_size '\000' in
  let handler =
    {
      Phys_mem.mmio_read =
        (fun ~offset ~len -> Bytes.sub backing offset len);
      mmio_write =
        (fun ~offset data ->
          Bytes.blit data 0 backing offset (Bytes.length data));
    }
  in
  let mmio_spn = Phys_mem.alloc_mmio mem handler in
  Phys_mem.write_u32 mem ~spa:(Addr.of_pfn mmio_spn + 8) 0x1234;
  Alcotest.(check int) "mmio u32 routed through handler" 0x1234
    (Phys_mem.read_u32 mem ~spa:(Addr.of_pfn mmio_spn + 8))

(* --- property tests --- *)

let prop_iter_page_chunks_equiv =
  QCheck.Test.make ~name:"iter_page_chunks visits exactly page_chunks" ~count:500
    QCheck.(pair (int_bound 100_000) (int_bound 20_000))
    (fun (addr, len) ->
      let visited = ref [] in
      Addr.iter_page_chunks ~addr ~len (fun a l -> visited := (a, l) :: !visited);
      List.rev !visited = Addr.page_chunks ~addr ~len)

let prop_page_chunks_cover =
  QCheck.Test.make ~name:"page_chunks exactly covers the byte range" ~count:500
    QCheck.(pair (int_bound 100_000) (int_bound 20_000))
    (fun (addr, len) ->
      let chunks = Addr.page_chunks ~addr ~len in
      let covered = List.fold_left (fun acc (_, l) -> acc + l) 0 chunks in
      let contiguous =
        let rec check expected = function
          | [] -> true
          | (a, l) :: rest -> a = expected && check (a + l) rest
        in
        match chunks with [] -> len = 0 | (a, _) :: _ -> a = addr && check addr chunks
      in
      let within_pages =
        List.for_all (fun (a, l) -> Addr.pfn a = Addr.pfn (a + l - 1) || l = 0) chunks
      in
      covered = len && contiguous && within_pages)

let prop_radix_map_lookup =
  QCheck.Test.make ~name:"radix table behaves like a finite map" ~count:200
    QCheck.(list (pair (int_bound 10_000) (int_bound 1_000_000)))
    (fun bindings ->
      let t = Radix_table.create ~widths:[ 9; 9; 9 ] in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (vfn, pfn) ->
          Radix_table.map t ~vfn ~pfn ~perms:Perm.rw;
          Hashtbl.replace model vfn pfn)
        bindings;
      Hashtbl.fold
        (fun vfn pfn ok ->
          ok
          &&
          match Radix_table.lookup t vfn with
          | Some leaf -> leaf.Radix_table.target_pfn = pfn
          | None -> false)
        model true
      && Radix_table.mapped_count t = Hashtbl.length model)

let prop_radix_unmap =
  QCheck.Test.make ~name:"radix unmap removes exactly the target" ~count:200
    QCheck.(pair (list (int_bound 1000)) (int_bound 1000))
    (fun (vfns, victim) ->
      let t = Radix_table.create ~widths:[ 9; 9; 9 ] in
      List.iter (fun vfn -> Radix_table.map t ~vfn ~pfn:(vfn + 7) ~perms:Perm.r) vfns;
      let was_mapped = Radix_table.lookup t victim <> None in
      let removed = Radix_table.unmap t victim in
      removed = was_mapped
      && Radix_table.lookup t victim = None
      && List.for_all
           (fun vfn ->
             vfn = victim || Radix_table.lookup t vfn <> None)
           vfns)

(* Random page-table surgery on a small table ([2; 3; 3]: 256 frames,
   8-frame large leaves) so every frame can be checked against a
   per-page model after each sequence. *)
type radix_op =
  | Op_map_range of int * int * int (* vfn, pfn, count *)
  | Op_map of int * int
  | Op_unmap of int
  | Op_set_perms of int * bool (* vfn, writable *)

let radix_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun v p c -> Op_map_range (v, p, c))
            (int_bound 255) (int_bound 10_000) (int_bound 40) );
        (2, map2 (fun v p -> Op_map (v, p)) (int_bound 255) (int_bound 10_000));
        (2, map (fun v -> Op_unmap v) (int_bound 255));
        (2, map2 (fun v w -> Op_set_perms (v, w)) (int_bound 255) bool);
      ])

let show_radix_op = function
  | Op_map_range (v, p, c) -> Printf.sprintf "map_range %d->%d x%d" v p c
  | Op_map (v, p) -> Printf.sprintf "map %d->%d" v p
  | Op_unmap v -> Printf.sprintf "unmap %d" v
  | Op_set_perms (v, w) -> Printf.sprintf "set_perms %d %b" v w

let prop_radix_large_leaves_match_model =
  QCheck.Test.make ~name:"radix table with large leaves matches a per-page model"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_radix_op ops))
       QCheck.Gen.(list_size (1 -- 30) radix_op_gen))
    (fun ops ->
      let t = Radix_table.create ~widths:[ 2; 3; 3 ] in
      let frames = 256 in
      let model = Hashtbl.create 64 in
      let apply = function
        | Op_map_range (vfn, pfn, count) ->
            let count = min count (frames - vfn) in
            Radix_table.map_range t ~vfn ~pfn ~count ~perms:Perm.rwx;
            for k = 0 to count - 1 do
              Hashtbl.replace model (vfn + k) (pfn + k, Perm.rwx)
            done
        | Op_map (vfn, pfn) ->
            Radix_table.map t ~vfn ~pfn ~perms:Perm.rw;
            Hashtbl.replace model vfn (pfn, Perm.rw)
        | Op_unmap vfn ->
            let removed = Radix_table.unmap t vfn in
            if removed <> Hashtbl.mem model vfn then failwith "unmap result";
            Hashtbl.remove model vfn
        | Op_set_perms (vfn, writable) -> (
            let perms = if writable then Perm.rw else Perm.none in
            match (Radix_table.set_perms t ~vfn ~perms, Hashtbl.find_opt model vfn) with
            | (), Some (pfn, _) -> Hashtbl.replace model vfn (pfn, perms)
            | (), None -> failwith "set_perms on an unmapped frame succeeded"
            | exception Not_found ->
                if Hashtbl.mem model vfn then failwith "set_perms lost a mapping")
      in
      List.iter apply ops;
      let lookups_agree =
        List.for_all
          (fun vfn ->
            match (Radix_table.lookup t vfn, Hashtbl.find_opt model vfn) with
            | None, None -> true
            | Some leaf, Some (pfn, perms) ->
                leaf.Radix_table.target_pfn = pfn && Perm.equal leaf.Radix_table.perms perms
            | Some _, None | None, Some _ -> false)
          (List.init frames Fun.id)
      in
      let iterated = ref [] in
      Radix_table.iter t (fun vfn leaf ->
          iterated := (vfn, leaf.Radix_table.target_pfn, leaf.Radix_table.perms) :: !iterated);
      let expected =
        Hashtbl.fold (fun vfn (pfn, perms) acc -> (vfn, pfn, perms) :: acc) model []
        |> List.sort compare
      in
      lookups_agree
      && Radix_table.mapped_count t = Hashtbl.length model
      && List.rev !iterated = expected)

let test_radix_large_leaf_split () =
  let t = Radix_table.create ~widths:[ 9; 9; 9; 9 ] in
  (* 1024 frames from an unaligned target: two large leaves *)
  Radix_table.map_range t ~vfn:512 ~pfn:7 ~count:1024 ~perms:Perm.rwx;
  Alcotest.(check int) "no last-level tables" 3 (Radix_table.node_count t);
  Alcotest.(check int) "pages counted" 1024 (Radix_table.mapped_count t);
  Alcotest.(check (option int)) "offset inside the span" (Some (7 + 700))
    (Option.map (fun l -> l.Radix_table.target_pfn) (Radix_table.lookup t (512 + 700)));
  let g = Radix_table.generation t in
  Radix_table.ensure_intermediate t 600;
  Alcotest.(check int) "ensure_intermediate splits" 4 (Radix_table.node_count t);
  Alcotest.(check int) "split does not bump the generation" g (Radix_table.generation t);
  Radix_table.set_perms t ~vfn:600 ~perms:Perm.r;
  Alcotest.(check int) "one mutation, one bump" (g + 1) (Radix_table.generation t);
  Alcotest.(check (option int)) "split neighbour keeps its target" (Some (7 + 89))
    (Option.map (fun l -> l.Radix_table.target_pfn) (Radix_table.lookup t 601));
  Alcotest.(check int) "split keeps the page count" 1024 (Radix_table.mapped_count t);
  Radix_table.map_range t ~vfn:512 ~pfn:0 ~count:512 ~perms:Perm.r;
  Alcotest.(check int) "remapping the span frees its table" 3 (Radix_table.node_count t);
  Alcotest.(check int) "and keeps the page count" 1024 (Radix_table.mapped_count t)

let test_phys_mem_range_backed () =
  let mem = Phys_mem.create () in
  let base = Phys_mem.alloc_frames mem 1_000_000 in
  Alcotest.(check int) "allocated, not stored" 1_000_000 (Phys_mem.frame_count mem);
  let last = Addr.of_pfn (base + 999_999) in
  Alcotest.(check int) "untouched frame reads zero" 0 (Phys_mem.read_u32 mem ~spa:last);
  Phys_mem.write_u32 mem ~spa:last 0xabcd;
  Alcotest.(check int) "then holds data" 0xabcd (Phys_mem.read_u32 mem ~spa:last);
  Alcotest.(check bool) "past the watermark is a bus error" true
    (match Phys_mem.read_u8 mem ~spa:(Addr.of_pfn (base + 1_000_000)) with
    | _ -> false
    | exception Fault.Bus_error _ -> true)

(* The linear top-down scan the allocator used before it kept a
   watermark: the reference its reservations must match. *)
module Linear_reserve = struct
  type t = { base : int; limit : int; mutable next : int; reserved : (int, unit) Hashtbl.t }

  let create ~pages = { base = 0; limit = pages; next = 0; reserved = Hashtbl.create 16 }

  let alloc_range t n =
    let rec find start =
      if start + n > t.limit then raise Out_of_memory;
      let rec clear i = i >= n || ((not (Hashtbl.mem t.reserved (start + i))) && clear (i + 1)) in
      if clear 0 then start else find (start + 1)
    in
    let start = find t.next in
    t.next <- start + n;
    start

  let reserve_unused t =
    if t.next >= t.limit then raise Out_of_memory;
    let rec from_top pfn =
      if pfn < t.next then raise Out_of_memory
      else if Hashtbl.mem t.reserved pfn then from_top (pfn - 1)
      else pfn
    in
    let pfn = from_top (t.limit - 1) in
    Hashtbl.replace t.reserved pfn ();
    pfn

  let reserve_unused_range t n =
    let fits start =
      start >= t.next
      &&
      let rec clear i = i >= n || ((not (Hashtbl.mem t.reserved (start + i))) && clear (i + 1)) in
      clear 0
    in
    let rec from_top start =
      if start < t.next then raise Out_of_memory
      else if fits start then start
      else from_top (start - 1)
    in
    let start = from_top (t.limit - n) in
    for i = 0 to n - 1 do
      Hashtbl.replace t.reserved (start + i) ()
    done;
    start

  let unreserve t pfn = Hashtbl.remove t.reserved pfn
end

type reserve_op = Reserve | Reserve_range of int | Unreserve of int | Alloc_range of int

let prop_reserve_watermark_matches_linear_scan =
  QCheck.Test.make ~name:"watermark reservations equal the linear scan" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (1 -- 80)
           (frequency
              [
                (4, return Reserve);
                (2, map (fun n -> Reserve_range n) (1 -- 9));
                (3, map (fun i -> Unreserve i) (int_bound 1000));
                (1, map (fun n -> Alloc_range n) (1 -- 6));
              ])))
    (fun ops ->
      let pages = 96 in
      let a = Allocator.create ~base:0 ~size:(pages * Addr.page_size) in
      let r = Linear_reserve.create ~pages in
      let held = ref [] in
      let outcome f = match f () with pfn -> Some pfn | exception Out_of_memory -> None in
      let same f g =
        let x = outcome f in
        x = outcome g
      in
      List.for_all
        (fun op ->
          match op with
          | Reserve ->
              same
                (fun () ->
                  let pfn = Addr.pfn (Allocator.reserve_unused a) in
                  held := pfn :: !held;
                  pfn)
                (fun () -> Linear_reserve.reserve_unused r)
          | Reserve_range n ->
              same
                (fun () ->
                  let pfn = Addr.pfn (Allocator.reserve_unused_range a n) in
                  held := List.init n (fun i -> pfn + i) @ !held;
                  pfn)
                (fun () -> Linear_reserve.reserve_unused_range r n)
          | Unreserve i -> (
              match !held with
              | [] -> true
              | l ->
                  let pfn = List.nth l (i mod List.length l) in
                  held := List.filter (( <> ) pfn) l;
                  Allocator.unreserve a (Addr.of_pfn pfn);
                  Linear_reserve.unreserve r pfn;
                  true)
          | Alloc_range n ->
              same
                (fun () -> Addr.pfn (Allocator.alloc_range a n))
                (fun () -> Linear_reserve.alloc_range r n))
        ops)

let test_allocator_range_reuse () =
  let a = Allocator.create ~base:0 ~size:(64 * Addr.page_size) in
  let r4 = Allocator.alloc_range a 4 and r2 = Allocator.alloc_range a 2 in
  Allocator.free_range a r4 4;
  Allocator.free_range a r2 2;
  Alcotest.(check int) "same-length run reused" r2 (Allocator.alloc_range a 2);
  Alcotest.(check bool) "other lengths bump" true (Allocator.alloc_range a 3 > r2);
  Alcotest.(check int) "runs come back whole" r4 (Allocator.alloc_range a 4)

let prop_phys_mem_roundtrip =
  QCheck.Test.make ~name:"phys_mem write/read round trip at random offsets"
    ~count:200
    QCheck.(pair (int_bound (3 * Addr.page_size)) string)
    (fun (off, s) ->
      QCheck.assume (String.length s > 0 && String.length s < Addr.page_size);
      let mem = Phys_mem.create () in
      let base = Phys_mem.alloc_frames mem 5 in
      let spa = Addr.of_pfn base + off in
      Phys_mem.write mem ~spa (Bytes.of_string s);
      Bytes.to_string (Phys_mem.read mem ~spa ~len:(String.length s)) = s)

let prop_two_level_walk_consistent =
  QCheck.Test.make ~name:"two-level translation equals composition of walks"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (pair (int_bound 4000) (int_bound 4000)))
    (fun pairs ->
      let pt = Guest_pt.create () and ept = Ept.create () in
      (* later bindings overwrite earlier ones, like real page tables *)
      let model = Hashtbl.create 16 in
      List.iter
        (fun (v, g) ->
          Guest_pt.map pt ~gva:(Addr.of_pfn v) ~gpa:(Addr.of_pfn g) ~perms:Perm.rw;
          Ept.map ept ~gpa:(Addr.of_pfn g) ~spa:(Addr.of_pfn (g + 100_000)) ~perms:Perm.rwx;
          Hashtbl.replace model v g)
        pairs;
      Hashtbl.fold (fun v g ok -> ok && (fun (v, g) ->
          let gva = Addr.of_pfn v + 123 in
          match Guest_pt.translate_opt pt ~gva ~access:Perm.Read with
          | None -> false
          | Some gpa -> (
              Addr.pfn gpa = g
              &&
              match Ept.translate_opt ept ~gpa ~access:Perm.Read with
              | None -> false
              | Some spa -> spa = Addr.of_pfn (g + 100_000) + 123))
        (v, g)) model true)

let suites =
  [
    ( "memory.addr",
      [
        Alcotest.test_case "page arithmetic" `Quick test_addr_arithmetic;
        Alcotest.test_case "page chunks" `Quick test_page_chunks;
        QCheck_alcotest.to_alcotest prop_page_chunks_cover;
        QCheck_alcotest.to_alcotest prop_iter_page_chunks_equiv;
      ] );
    ("memory.perm", [ Alcotest.test_case "permission lattice" `Quick test_perm_lattice ]);
    ( "memory.phys_mem",
      [
        Alcotest.test_case "read/write" `Quick test_phys_mem_rw;
        Alcotest.test_case "cross-frame access" `Quick test_phys_mem_cross_frame;
        Alcotest.test_case "bus error" `Quick test_phys_mem_bus_error;
        Alcotest.test_case "u32/u64 accessors" `Quick test_phys_mem_u32_u64;
        Alcotest.test_case "mmio routing" `Quick test_phys_mem_mmio;
        Alcotest.test_case "zero frame" `Quick test_phys_mem_zero_frame;
        Alcotest.test_case "zero-copy blits" `Quick test_read_into_write_from;
        Alcotest.test_case "scalar cross-page + mmio" `Quick
          test_scalars_cross_page_and_mmio;
        Alcotest.test_case "range-backed frames" `Quick test_phys_mem_range_backed;
        QCheck_alcotest.to_alcotest prop_phys_mem_roundtrip;
      ] );
    ( "memory.page_tables",
      [
        Alcotest.test_case "guest pt translate" `Quick test_guest_pt_translate;
        Alcotest.test_case "guest pt permission fault" `Quick test_guest_pt_permission_fault;
        Alcotest.test_case "prepare range (levels-except-last)" `Quick test_guest_pt_prepare_range;
        Alcotest.test_case "32-bit limit" `Quick test_guest_pt_32bit_limit;
        Alcotest.test_case "two-level translation" `Quick test_ept_two_level_translation;
        Alcotest.test_case "ept permission stripping" `Quick test_ept_permission_stripping;
        Alcotest.test_case "ept set_perms unmapped" `Quick test_ept_set_perms_unmapped;
        Alcotest.test_case "ept reverse lookup" `Quick test_ept_reverse_lookup;
        Alcotest.test_case "radix node counting" `Quick test_radix_node_counting;
        Alcotest.test_case "radix generation counter" `Quick test_radix_generation;
        Alcotest.test_case "radix large leaf split" `Quick test_radix_large_leaf_split;
        QCheck_alcotest.to_alcotest prop_radix_large_leaves_match_model;
        QCheck_alcotest.to_alcotest prop_radix_map_lookup;
        QCheck_alcotest.to_alcotest prop_radix_unmap;
        QCheck_alcotest.to_alcotest prop_two_level_walk_consistent;
      ] );
    ( "memory.iommu",
      [
        Alcotest.test_case "basic translation" `Quick test_iommu_basic;
        Alcotest.test_case "region switch" `Quick test_iommu_regions;
        Alcotest.test_case "read-only dma" `Quick test_iommu_read_only_dma;
      ] );
    ( "memory.allocator",
      [
        Alcotest.test_case "alloc/free/reuse" `Quick test_allocator_basic;
        Alcotest.test_case "reserve unused" `Quick test_allocator_reserve_unused;
        Alcotest.test_case "exhaustion" `Quick test_allocator_exhaustion;
        Alcotest.test_case "freed runs reused by length" `Quick test_allocator_range_reuse;
        QCheck_alcotest.to_alcotest prop_reserve_watermark_matches_linear_scan;
      ] );
  ]
