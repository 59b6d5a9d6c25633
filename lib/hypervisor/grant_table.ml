(** Grant table: the frontend's declaration of legitimate memory
    operations (§4.1, §5.1).

    The table is a single page shared between a guest VM and the
    hypervisor.  Before forwarding a file operation, the CVD frontend
    stores the operation's legitimate memory operations as a group of
    entries and obtains a {e grant reference} (the index of the group's
    first slot).  The backend attaches that reference to every
    hypervisor memory-operation request; the hypervisor validates the
    request against the referenced entries with a bounded scan.

    Entry layout (24 bytes, 170 slots per 4 KiB page):
    {v
      u8  kind      0=free 1=copy_to_user 2=copy_from_user 3=map
      u8  flags     bit0: last entry of the group
      u16 (pad)
      u32 len
      u64 addr      guest virtual address
      u64 (pad)
    v} *)

type op =
  | Copy_to_user of { addr : int; len : int } (* driver writes process memory *)
  | Copy_from_user of { addr : int; len : int } (* driver reads process memory *)
  | Map_page of { addr : int; len : int } (* map device/system pages at gva *)

let entry_size = 24
let capacity = Memory.Addr.page_size / entry_size

type t = {
  page : Shared_page.t;
  guest : Shared_page.view; (* frontend's mapping *)
  hyp : Shared_page.view; (* hypervisor's direct view *)
  (* Bumped by every mutation (declare/release/revoke_all) so the
     hypervisor's grant-check cache can detect stale entries.  All
     writes to the table page go through those three functions. *)
  mutable generation : int;
  (* Outstanding-entry quota: a guest may be capped below the physical
     table capacity, bounding how much validation state it can pin.
     [active] mirrors the non-free slot count (same three mutators). *)
  mutable quota : int;
  mutable active : int;
  mutable quota_breaches : int;
}

exception Table_full

exception Quota_exceeded

let create phys ~guest_vm =
  let page = Shared_page.allocate phys in
  (* The guest maps its grant table read/write; the hypervisor reads it
     directly. *)
  let (_ : int) = Shared_page.map_into page guest_vm ~perms:Memory.Perm.rw in
  {
    page;
    guest = Shared_page.view_of page guest_vm;
    hyp = Shared_page.hypervisor_view page;
    generation = 0;
    quota = capacity;
    active = 0;
    quota_breaches = 0;
  }

let page t = t.page
let generation t = t.generation

let set_quota t q =
  if q < 1 || q > capacity then invalid_arg "Grant_table.set_quota";
  t.quota <- q

let quota t = t.quota
let quota_breaches t = t.quota_breaches

let kind_code = function
  | Copy_to_user _ -> 1
  | Copy_from_user _ -> 2
  | Map_page _ -> 3

let op_addr = function
  | Copy_to_user { addr; _ } | Copy_from_user { addr; _ } | Map_page { addr; _ } ->
      addr

let op_len = function
  | Copy_to_user { len; _ } | Copy_from_user { len; _ } | Map_page { len; _ } -> len

let write_entry (view : Shared_page.view) ~slot ~op ~last =
  let base = slot * entry_size in
  Shared_page.write_u32 view ~offset:base
    (kind_code op lor ((if last then 1 else 0) lsl 8));
  Shared_page.write_u32 view ~offset:(base + 4) (op_len op);
  Shared_page.write_u64 view ~offset:(base + 8) (Int64.of_int (op_addr op))

let read_entry (view : Shared_page.view) ~slot =
  let base = slot * entry_size in
  let word = Shared_page.read_u32 view ~offset:base in
  let kind = word land 0xff and last = word land 0x100 <> 0 in
  let len = Shared_page.read_u32 view ~offset:(base + 4) in
  let addr = Int64.to_int (Shared_page.read_u64 view ~offset:(base + 8)) in
  let op =
    match kind with
    | 0 -> None
    | 1 -> Some (Copy_to_user { addr; len })
    | 2 -> Some (Copy_from_user { addr; len })
    | 3 -> Some (Map_page { addr; len })
    | _ -> None
  in
  (op, last)

let slot_free (view : Shared_page.view) slot =
  Shared_page.read_u32 view ~offset:(slot * entry_size) land 0xff = 0

(* ---- frontend side ---- *)

(** Declare a group of operations; returns the grant reference. *)
let declare t ops =
  (match ops with [] -> invalid_arg "Grant_table.declare: empty group" | _ :: _ -> ());
  let n = List.length ops in
  (* Quota check only when the guest is capped below the physical
     table: at full quota an overflowing declare is simply Table_full,
     as before quotas existed. *)
  if t.quota < capacity && t.active + n > t.quota then begin
    t.quota_breaches <- t.quota_breaches + 1;
    raise Quota_exceeded
  end;
  (* first-fit scan for n contiguous free slots *)
  let rec fits start i =
    i >= n || (slot_free t.guest (start + i) && fits start (i + 1))
  in
  let rec find start =
    if start + n > capacity then raise Table_full
    else if fits start 0 then start
    else find (start + 1)
  in
  let start = find 0 in
  List.iteri
    (fun i op -> write_entry t.guest ~slot:(start + i) ~op ~last:(i = n - 1))
    ops;
  t.active <- t.active + n;
  t.generation <- t.generation + 1;
  start

(** Release a group once its file operation has completed. *)
let release t grant_ref =
  let rec go slot =
    if slot >= capacity then ()
    else begin
      let op, last = read_entry t.guest ~slot in
      (match op with Some _ -> t.active <- Int.max 0 (t.active - 1) | None -> ());
      Shared_page.write_u32 t.guest ~offset:(slot * entry_size) 0;
      if not last then go (slot + 1)
    end
  in
  if grant_ref < 0 || grant_ref >= capacity then
    invalid_arg "Grant_table.release: bad reference";
  go grant_ref;
  t.generation <- t.generation + 1

(** Revoke every outstanding declaration at once (driver-VM crash
    recovery: nothing the dead backend held may stay authorised).
    Returns the number of entries cleared. *)
let revoke_all t =
  let cleared = ref 0 in
  for slot = 0 to capacity - 1 do
    if not (slot_free t.guest slot) then begin
      Shared_page.write_u32 t.guest ~offset:(slot * entry_size) 0;
      incr cleared
    end
  done;
  t.active <- 0;
  t.generation <- t.generation + 1;
  !cleared

(** Outstanding (non-free) entries — 0 once every grant is released
    or revoked. *)
let active_entries t =
  let n = ref 0 in
  for slot = 0 to capacity - 1 do
    if not (slot_free t.guest slot) then incr n
  done;
  !n

(* ---- checkpoint / restore (planned driver-VM handoff) ---- *)

(** Checkpoint every outstanding declaration: [(grant_ref, group)] for
    each group head, in slot order.  The table itself survives a
    driver-VM swap (it is shared guest<->hypervisor, the driver VM
    never maps it), so the snapshot exists to {e re-validate} the page
    on restore, not to rebuild it. *)
let snapshot t =
  let rec groups slot acc =
    if slot >= capacity then List.rev acc
    else if slot_free t.guest slot then groups (slot + 1) acc
    else begin
      (* walk to the end of this group *)
      let rec span s ops =
        match read_entry t.guest ~slot:s with
        | None, _ -> (s, List.rev ops)
        | Some op, true -> (s + 1, List.rev (op :: ops))
        | Some op, false -> span (s + 1) (op :: ops)
      in
      let next, ops = span slot [] in
      groups next ((slot, ops) :: acc)
    end
  in
  groups 0 []

(** Re-validate the live table against a checkpoint: any outstanding
    group that does not exactly match the snapshot's record — mutated
    between checkpoint and restore, or appeared from nowhere — is
    revoked, so the successor driver VM only honours declarations the
    departed instance could prove.  Returns the number of groups
    revoked. *)
let verify_snapshot t snap =
  let live = snapshot t in
  let revoked = ref 0 in
  List.iter
    (fun (grant_ref, ops) ->
      if not (List.mem (grant_ref, ops) snap) then begin
        release t grant_ref;
        incr revoked
      end)
    live;
  !revoked

(* ---- hypervisor side ---- *)

(** All operations declared under [grant_ref] (hypervisor's view). *)
let lookup t grant_ref =
  if grant_ref < 0 || grant_ref >= capacity then []
  else begin
    let rec go slot acc =
      if slot >= capacity then List.rev acc
      else
        match read_entry t.hyp ~slot with
        | None, _ -> List.rev acc (* free slot terminates the group *)
        | Some op, true -> List.rev (op :: acc)
        | Some op, false -> go (slot + 1) (op :: acc)
    in
    go grant_ref []
  end

let range_within ~addr ~len ~decl_addr ~decl_len =
  len >= 0 && addr >= decl_addr && addr + len <= decl_addr + decl_len

(** Does a declared group authorise [requested]?  A request is covered
    when it falls inside a declared entry of the same kind — drivers
    may copy a prefix or a piece of a declared buffer.  Pure check
    against an already-read group, so the hypervisor can validate from
    its grant-check cache without touching the shared page. *)
let authorises_ops declared ~requested =
  List.exists
    (fun decl ->
      match (decl, requested) with
      | Copy_to_user d, Copy_to_user r ->
          range_within ~addr:r.addr ~len:r.len ~decl_addr:d.addr ~decl_len:d.len
      | Copy_from_user d, Copy_from_user r ->
          range_within ~addr:r.addr ~len:r.len ~decl_addr:d.addr ~decl_len:d.len
      | Map_page d, Map_page r ->
          range_within ~addr:r.addr ~len:r.len ~decl_addr:d.addr ~decl_len:d.len
      | _ -> false)
    declared

let authorises t ~grant_ref ~requested =
  authorises_ops (lookup t grant_ref) ~requested

let pp_op ppf = function
  | Copy_to_user { addr; len } -> Fmt.pf ppf "copy_to_user(0x%x, %d)" addr len
  | Copy_from_user { addr; len } -> Fmt.pf ppf "copy_from_user(0x%x, %d)" addr len
  | Map_page { addr; len } -> Fmt.pf ppf "map_page(0x%x, %d)" addr len
