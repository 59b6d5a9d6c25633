(** Core kernel data structures.

    [task], [file], [vma], [device] and [file_ops] are mutually
    recursive (a task holds files, a file belongs to a device whose
    handlers take tasks), so they are defined together here; the
    modules around this one ({!Task}, {!Vfs}, {!Devfs}, {!Uaccess})
    provide the behaviour. *)

type task = {
  pid : int;
  task_name : string;
  vm : Hypervisor.Vm.t;
  pt : Memory.Guest_pt.t; (* the process's page table *)
  va_alloc : Memory.Allocator.t; (* user virtual-address space *)
  fds : file Memory.Int_tbl.t;
  mutable next_fd : int;
  mutable mmap_cursor : int; (* next free address in the mmap area *)
  mutable vmas : vma list;
  mutable remote : remote_ctx option;
      (* CVD backend marker (§5.2): when set, this thread executes a
         file operation on behalf of a process in another VM and the
         wrapper stubs redirect its memory operations to the
         hypervisor. *)
  mutable sigio_handler : (unit -> unit) option;
  mutable sigio_count : int;
}

and file = {
  file_id : int;
  dev : device;
  opener : task;
  mutable nonblock : bool;
  mutable fasync_subscribers : task list;
  mutable closed : bool;
}

and vma = {
  vma_start : int; (* gva, page aligned *)
  vma_len : int; (* bytes, page multiple *)
  vma_file : file;
  vma_pgoff : int; (* page offset into the device mapping *)
}

and device = {
  dev_path : string; (* "/dev/dri/card0" *)
  dev_class : string; (* "gpu", "input", "camera", "audio", "net" *)
  driver_name : string;
  ops : file_ops;
  exclusive : bool; (* driver allows only one open at a time (§5.1) *)
  mutable open_count : int;
}

and file_ops = {
  fop_open : task -> file -> unit;
  fop_release : task -> file -> unit;
  fop_read : task -> file -> buf:int -> len:int -> int;
  fop_write : task -> file -> buf:int -> len:int -> int;
  fop_ioctl : task -> file -> cmd:int -> arg:int64 -> int;
  fop_mmap : task -> file -> vma -> unit;
  fop_poll : task -> file -> want_in:bool -> want_out:bool -> poll_result;
      (* [want_in]/[want_out] mirror the caller's interest mask
         (POLLIN/POLLOUT): a driver may skip work for directions the
         caller did not ask about (netmap only txsyncs under
         [want_out]), but must still report true readiness *)
  fop_fasync : task -> file -> on:bool -> unit;
  fop_fault : task -> file -> vma -> gva:int -> unit;
  fop_vma_close : task -> file -> vma -> unit;
      (* the vm_ops->close analogue: the kernel tells the driver a
         mapping is gone (after destroying its own page-table leaves,
         §5.2) *)
  fop_kinds : Os_flavor.op_kind list; (* which operations the driver implements *)
}

and poll_result = {
  pollin : bool;
  pollout : bool;
  poll_wq : Wait_queue.t option; (* where to sleep when no event is ready *)
}

and remote_ctx = {
  rc_hyp : Hypervisor.Hyp.t;
  rc_target : Hypervisor.Vm.t; (* the guest whose process we serve *)
  rc_pt : Memory.Guest_pt.t; (* that process's page table *)
  rc_grant : int; (* grant reference for this file operation *)
  rc_charge : float -> unit; (* simulated-time cost of each hypercall *)
  rc_trace : int; (* trace id of the forwarded operation; 0 = untraced *)
}

let no_poll = { pollin = false; pollout = false; poll_wq = None }

(** Handlers a driver does not implement. *)
let not_supported _ = Errno.fail Errno.EINVAL "operation not supported"

let default_ops =
  {
    fop_open = (fun _ _ -> ());
    fop_release = (fun _ _ -> ());
    fop_read = (fun _ _ ~buf:_ ~len:_ -> Errno.fail Errno.EINVAL "no read handler");
    fop_write = (fun _ _ ~buf:_ ~len:_ -> Errno.fail Errno.EINVAL "no write handler");
    fop_ioctl = (fun _ _ ~cmd:_ ~arg:_ -> Errno.fail Errno.ENOTTY "no ioctl handler");
    fop_mmap = (fun _ _ _ -> Errno.fail Errno.ENODEV "no mmap handler");
    fop_poll = (fun _ _ ~want_in:_ ~want_out:_ -> no_poll);
    fop_fasync = (fun _ _ ~on:_ -> ());
    fop_fault = (fun _ _ _ ~gva:_ -> Errno.fail Errno.EFAULT "no fault handler");
    fop_vma_close = (fun _ _ _ -> ());
    fop_kinds = [ Os_flavor.Open; Os_flavor.Release ];
  }

let make_device ~path ~cls ~driver ?(exclusive = false) ops =
  {
    dev_path = path;
    dev_class = cls;
    driver_name = driver;
    ops;
    exclusive;
    open_count = 0;
  }
