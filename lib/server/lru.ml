type 'a entry = { value : 'a; mutable stamp : int }

type 'a t = {
  tbl : (string, 'a entry) Hashtbl.t;
  cap : int;
  lock : Slif_obs.Lockprof.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~name ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be at least 1";
  {
    tbl = Hashtbl.create (2 * capacity);
    cap = capacity;
    lock = Slif_obs.Lockprof.create name;
    tick = 0;
    hits = 0;
    misses = 0;
  }

let locked t f = Slif_obs.Lockprof.with_lock t.lock f

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None ->
          t.misses <- t.misses + 1;
          None
      | Some e ->
          t.hits <- t.hits + 1;
          touch t e;
          Some e.value)

let evict_oldest t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, stamp) when stamp <= e.stamp -> ()
      | _ -> victim := Some (k, e.stamp))
    t.tbl;
  match !victim with Some (k, _) -> Hashtbl.remove t.tbl k | None -> ()

let add t key value =
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl key with
      | Some _ -> Hashtbl.remove t.tbl key
      | None -> if Hashtbl.length t.tbl >= t.cap then evict_oldest t);
      let e = { value; stamp = 0 } in
      touch t e;
      Hashtbl.replace t.tbl key e)

let remove t key = locked t (fun () -> Hashtbl.remove t.tbl key)

let release t = Slif_obs.Lockprof.release t.lock

type stats = { size : int; capacity : int; hits : int; misses : int; keys : string list }

let stats t =
  locked t (fun () ->
      {
        size = Hashtbl.length t.tbl;
        capacity = t.cap;
        hits = t.hits;
        misses = t.misses;
        keys =
          Hashtbl.fold (fun k e acc -> (k, e.stamp) :: acc) t.tbl []
          |> List.sort (fun (_, a) (_, b) -> compare b a)
          |> List.map fst;
      })
