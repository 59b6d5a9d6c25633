(* Shared test fixtures: assembled mini-machines with devices attached
   natively (driver and application in the same kernel). *)

open Oskit

let mib = 1024 * 1024

type machine = {
  eng : Sim.Engine.t;
  phys : Memory.Phys_mem.t;
  hyp : Hypervisor.Hyp.t;
  driver_vm : Hypervisor.Vm.t;
  kernel : Kernel.t;
  iommu : Memory.Iommu.t;
}

let make_machine ?(mem_mib = 64) ?(costs = Kernel.zero_costs) () =
  let eng = Sim.Engine.create () in
  let phys = Memory.Phys_mem.create () in
  let hyp = Hypervisor.Hyp.create phys in
  let driver_vm =
    Hypervisor.Hyp.create_vm hyp ~name:"driver" ~kind:Hypervisor.Vm.Driver
      ~mem_bytes:(mem_mib * mib)
  in
  let kernel =
    Kernel.create ~engine:eng ~vm:driver_vm ~flavor:Os_flavor.Linux_3_2_0 ~costs ()
  in
  let iommu = Memory.Iommu.create ~name:"dev-iommu" in
  { eng; phys; hyp; driver_vm; kernel; iommu }

(** Map [pages] system frames starting at [spa] into [vm] at a fresh
    contiguous guest-physical range (device assignment of a BAR). *)
let map_bar vm ~spa ~pages ~perms =
  let gpa_alloc = vm.Hypervisor.Vm.gpa_alloc in
  let base_gpa = Memory.Allocator.reserve_unused_range gpa_alloc pages in
  Memory.Ept.map_range (Hypervisor.Vm.ept vm) ~gpa:base_gpa ~spa ~pages ~perms;
  base_gpa

(** A machine with a GPU and the radeon driver registered, everything
    native (no isolation). *)
let gpu_machine ?(vram_pages = 256) () =
  let m = make_machine () in
  let gpu = Devices.Gpu_hw.create m.eng m.phys ~iommu:m.iommu ~vram_pages () in
  let bar_gpa =
    map_bar m.driver_vm ~spa:(Devices.Gpu_hw.vram_base gpu) ~pages:vram_pages
      ~perms:Memory.Perm.rw
  in
  let mc_spn = Devices.Mem_ctrl.install_mmio (Devices.Gpu_hw.mem_ctrl gpu) m.phys in
  let mc_mmio_gpa =
    map_bar m.driver_vm ~spa:(Memory.Addr.of_pfn mc_spn) ~pages:1 ~perms:Memory.Perm.rw
  in
  let drv =
    Devices.Radeon_drv.create ~kernel:m.kernel ~gpu ~iommu:m.iommu ~bar_gpa ~mc_mmio_gpa
  in
  Devices.Radeon_drv.init_native drv;
  let (_ : Defs.device) = Devices.Radeon_drv.register drv in
  Devices.Gpu_hw.start gpu;
  (m, drv)

let run_in_process eng f =
  let result = ref None in
  Sim.Engine.spawn eng (fun () -> result := Some (f ()));
  Sim.Engine.run eng;
  match !result with Some v -> v | None -> Alcotest.fail "process did not finish"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Errno.to_string e)

(* -- little-endian u32/u64 helpers over user buffers -- *)

let put_u32 task ~gva v = Task.write_u32 task ~gva v
let get_u32 task ~gva = Task.read_u32 task ~gva
let put_u64 task ~gva v = Task.write_u64 task ~gva (Int64.of_int v)
let get_u64 task ~gva = Int64.to_int (Task.read_u64 task ~gva)

(* -- GEM convenience wrappers (the "libdrm" of the tests) -- *)

let gem_create kernel task fd ~size ~domain =
  let arg = Task.alloc_buf task Devices.Radeon_ioctl.gem_create_size in
  put_u64 task ~gva:(arg + Devices.Radeon_ioctl.gem_create_off_size) size;
  put_u32 task ~gva:(arg + Devices.Radeon_ioctl.gem_create_off_domain) domain;
  let rc = ok (Vfs.ioctl kernel task fd ~cmd:Devices.Radeon_ioctl.gem_create ~arg:(Int64.of_int arg)) in
  Alcotest.(check int) "gem_create rc" 0 rc;
  get_u32 task ~gva:(arg + Devices.Radeon_ioctl.gem_create_off_handle)

let gem_mmap kernel task fd ~handle =
  let arg = Task.alloc_buf task Devices.Radeon_ioctl.gem_mmap_size in
  put_u32 task ~gva:(arg + Devices.Radeon_ioctl.gem_mmap_off_handle) handle;
  let rc = ok (Vfs.ioctl kernel task fd ~cmd:Devices.Radeon_ioctl.gem_mmap ~arg:(Int64.of_int arg)) in
  Alcotest.(check int) "gem_mmap rc" 0 rc;
  let fake_off = get_u64 task ~gva:(arg + Devices.Radeon_ioctl.gem_mmap_off_addr) in
  let size = get_u64 task ~gva:(arg + Devices.Radeon_ioctl.gem_mmap_off_size) in
  let len = Memory.Addr.align_up size in
  ok (Vfs.mmap kernel task fd ~len ~pgoff:(fake_off / Memory.Addr.page_size))

(** Build and submit a CS ioctl containing [ib_words] and [relocs];
    returns the fence. *)
let submit_cs kernel task fd ~ib_words ~relocs =
  let ib_bytes = List.length ib_words * 4 in
  let ib_buf = Task.alloc_buf task (max ib_bytes 4) in
  List.iteri (fun i w -> put_u32 task ~gva:(ib_buf + (i * 4)) w) ib_words;
  let reloc_bytes = max (Array.length relocs * 4) 4 in
  let reloc_buf = Task.alloc_buf task reloc_bytes in
  Array.iteri (fun i h -> put_u32 task ~gva:(reloc_buf + (i * 4)) h) relocs;
  (* chunk headers *)
  let hdr_ib = Task.alloc_buf task Devices.Radeon_ioctl.cs_chunk_header_size in
  put_u32 task ~gva:(hdr_ib + Devices.Radeon_ioctl.chunk_off_id) Devices.Radeon_ioctl.chunk_id_ib;
  put_u32 task ~gva:(hdr_ib + Devices.Radeon_ioctl.chunk_off_length_dw) (List.length ib_words);
  put_u64 task ~gva:(hdr_ib + Devices.Radeon_ioctl.chunk_off_data) ib_buf;
  let hdr_re = Task.alloc_buf task Devices.Radeon_ioctl.cs_chunk_header_size in
  put_u32 task ~gva:(hdr_re + Devices.Radeon_ioctl.chunk_off_id) Devices.Radeon_ioctl.chunk_id_relocs;
  put_u32 task ~gva:(hdr_re + Devices.Radeon_ioctl.chunk_off_length_dw) (Array.length relocs);
  put_u64 task ~gva:(hdr_re + Devices.Radeon_ioctl.chunk_off_data) reloc_buf;
  (* pointer array *)
  let ptrs = Task.alloc_buf task 16 in
  put_u64 task ~gva:ptrs hdr_ib;
  put_u64 task ~gva:(ptrs + 8) hdr_re;
  (* main struct *)
  let arg = Task.alloc_buf task Devices.Radeon_ioctl.cs_size in
  put_u32 task ~gva:(arg + Devices.Radeon_ioctl.cs_off_num_chunks) 2;
  put_u64 task ~gva:(arg + Devices.Radeon_ioctl.cs_off_chunks_ptr) ptrs;
  let rc = ok (Vfs.ioctl kernel task fd ~cmd:Devices.Radeon_ioctl.cs ~arg:(Int64.of_int arg)) in
  Alcotest.(check int) "cs rc" 0 rc;
  get_u64 task ~gva:(arg + Devices.Radeon_ioctl.cs_off_fence)

let wait_idle kernel task fd =
  let arg = Task.alloc_buf task Devices.Radeon_ioctl.gem_wait_idle_size in
  let rc =
    ok (Vfs.ioctl kernel task fd ~cmd:Devices.Radeon_ioctl.gem_wait_idle ~arg:(Int64.of_int arg))
  in
  Alcotest.(check int) "wait_idle rc" 0 rc

(* -- f64 matrix helpers over user memory -- *)

(* mmap'd buffer-object pages arrive on demand, so matrix access uses
   the fault-handling user_read/user_write path *)
let write_matrix kernel task ~gva ~order f =
  let row = Bytes.create (order * 8) in
  for i = 0 to order - 1 do
    for j = 0 to order - 1 do
      Bytes.set_int64_le row (j * 8) (Int64.bits_of_float (f i j))
    done;
    Vfs.user_write kernel task ~gva:(gva + (i * order * 8)) row
  done

let read_matrix_elt kernel task ~gva ~order ~i ~j =
  Int64.float_of_bits
    (Bytes.get_int64_le (Vfs.user_read kernel task ~gva:(gva + (((i * order) + j) * 8)) ~len:8) 0)
