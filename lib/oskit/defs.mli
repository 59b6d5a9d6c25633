(** Core kernel data structures — mutually recursive, so defined
    together; behaviour lives in {!Task}, {!Vfs}, {!Devfs} and
    {!Uaccess}. *)

type task = {
  pid : int;
  task_name : string;
  vm : Hypervisor.Vm.t;
  pt : Memory.Guest_pt.t; (** the process's page table *)
  va_alloc : Memory.Allocator.t;
  fds : file Memory.Int_tbl.t;
  mutable next_fd : int;
  mutable mmap_cursor : int;  (** next free address in the mmap area *)
  mutable vmas : vma list;
  mutable remote : remote_ctx option;
      (** CVD backend marker (§5.2): set while this thread executes a
          file operation for a process in another VM, redirecting its
          memory operations to the hypervisor *)
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
  vma_start : int; (** gva, page aligned *)
  vma_len : int; (** bytes, page multiple *)
  vma_file : file;
  vma_pgoff : int; (** page offset into the device mapping *)
}

and device = {
  dev_path : string;
  dev_class : string;
  driver_name : string;
  ops : file_ops;
  exclusive : bool; (** single-open driver (§5.1: camera, netmap) *)
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
      (** [want_in]/[want_out] mirror the caller's POLLIN/POLLOUT
          interest mask; drivers may skip work for directions not
          asked about but must report true readiness *)
  fop_fasync : task -> file -> on:bool -> unit;
  fop_fault : task -> file -> vma -> gva:int -> unit;
  fop_vma_close : task -> file -> vma -> unit;
      (** vm_ops->close analogue: called after the kernel destroyed its
          own page-table leaves (§5.2's unmap ordering) *)
  fop_kinds : Os_flavor.op_kind list;
}

and poll_result = {
  pollin : bool;
  pollout : bool;
  poll_wq : Wait_queue.t option; (** where to sleep when nothing is ready *)
}

and remote_ctx = {
  rc_hyp : Hypervisor.Hyp.t;
  rc_target : Hypervisor.Vm.t;
  rc_pt : Memory.Guest_pt.t;
  rc_grant : int;
  rc_charge : float -> unit; (** per-hypercall simulated-time cost *)
  rc_trace : int; (** trace id of the forwarded operation; 0 = untraced *)
}

val no_poll : poll_result

(** Raises EINVAL; for handlers a driver does not implement. *)
val not_supported : 'a -> 'b

(** Handlers that reject everything; override what the driver
    implements. *)
val default_ops : file_ops

val make_device :
  path:string -> cls:string -> driver:string -> ?exclusive:bool -> file_ops -> device
