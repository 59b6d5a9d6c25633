(** Fleet placement: device-class → shard routing and load accounting.

    A fleet partitions its device classes (and the driver VMs serving
    them) across independent shards (see {!Fleet}).  This module is
    the control-plane map: which shards own which device class, how
    many guest links each shard carries, and — when the load skews —
    which moves would even it out.

    Everything here is ordinary single-domain bookkeeping: routing
    decisions happen before shards start executing, and aggregation
    happens after their domains join, so the map itself is never
    shared between running domains.  All decisions are deterministic:
    least-loaded wins, ties to the lowest shard id. *)

type shard = {
  shard_id : int;
  mutable classes : string list; (* device classes owned, insertion order *)
  mutable links : int; (* guest links routed here *)
}

type t = {
  shards : shard array;
  by_class : (string, int list ref) Hashtbl.t; (* owners, ascending ids *)
}

exception No_owner of string
(** Raised by {!route_open} for a device class no shard owns. *)

let create ~shards:n =
  if n <= 0 then invalid_arg "Placement.create: shards must be positive";
  {
    shards =
      Array.init n (fun shard_id -> { shard_id; classes = []; links = 0 });
    by_class = Hashtbl.create 8;
  }

let check_shard t shard =
  if shard < 0 || shard >= Array.length t.shards then
    invalid_arg (Printf.sprintf "Placement: shard %d out of range" shard)

(** Declare that [shard] serves device class [cls] (it runs a driver
    VM exporting those device files).  Idempotent. *)
let register t ~shard ~cls =
  check_shard t shard;
  let owners =
    match Hashtbl.find_opt t.by_class cls with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace t.by_class cls r;
        r
  in
  if not (List.mem shard !owners) then begin
    !owners @ [ shard ] |> List.sort compare |> fun l -> owners := l;
    let s = t.shards.(shard) in
    s.classes <- s.classes @ [ cls ]
  end

let owners t cls =
  match Hashtbl.find_opt t.by_class cls with Some r -> !r | None -> []

(** Route a guest link opening a device of class [cls]: the
    least-loaded owning shard (fewest links; ties → lowest id).  The
    chosen shard's link count is bumped — routing [n] opens spreads
    them round-robin across equally-loaded owners. *)
let route_open t cls =
  match owners t cls with
  | [] -> raise (No_owner cls)
  | first :: rest ->
      let best =
        List.fold_left
          (fun best s ->
            if t.shards.(s).links < t.shards.(best).links then s else best)
          first rest
      in
      t.shards.(best).links <- t.shards.(best).links + 1;
      best

type move = { mv_src : int; mv_dst : int; mv_count : int }

(* Shards can exchange load only where their class sets intersect:
   a guest's open files belong to a device class, and only an owning
   shard runs a driver VM that can serve them. *)
let share_class t a b =
  List.exists (fun c -> List.mem c t.shards.(b).classes) t.shards.(a).classes

(** Plan link moves to even out the fleet: repeatedly shift one link
    from the most- to the least-loaded pair of shards sharing a device
    class, until every such pair is within one link.  Pure planning —
    executing a move means migrating the guest's session
    ({!Machine.migrate_guest}).  Deterministic: ties → lowest shard
    id. *)
let rebalance_plan t =
  let links = Array.map (fun s -> s.links) t.shards in
  let moves = Hashtbl.create 8 in
  let progress = ref true in
  while !progress do
    progress := false;
    (* widest eligible (src, dst) gap this round *)
    let best = ref None in
    Array.iter
      (fun src ->
        Array.iter
          (fun dst ->
            if
              src.shard_id <> dst.shard_id
              && share_class t src.shard_id dst.shard_id
              && links.(src.shard_id) > links.(dst.shard_id) + 1
            then
              let gap = links.(src.shard_id) - links.(dst.shard_id) in
              match !best with
              | Some (g, _, _) when g >= gap -> ()
              | _ -> best := Some (gap, src.shard_id, dst.shard_id))
          t.shards)
      t.shards;
    match !best with
    | None -> ()
    | Some (_, src, dst) ->
        links.(src) <- links.(src) - 1;
        links.(dst) <- links.(dst) + 1;
        let key = (src, dst) in
        Hashtbl.replace moves key
          (1 + Option.value ~default:0 (Hashtbl.find_opt moves key));
        progress := true
  done;
  Hashtbl.fold
    (fun (mv_src, mv_dst) mv_count acc -> { mv_src; mv_dst; mv_count } :: acc)
    moves []
  |> List.sort compare
