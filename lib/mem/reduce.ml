(* Symbolic peak-memory reducers. Every pass transforms schedule
   positions and buffer lifetimes only — the graph's values and math are
   untouched — so correctness reduces to lifetime bookkeeping, which
   [plan] re-checks concretely via [Memplan.validate].

   All evaluation happens at one binding (the shape-bucket rung ceiling
   the decision is made for); every tie breaks on original position or
   value id, so a decision is a pure function of (executable, binding)
   and can be cached per fingerprint × bucket. *)

module Graph = Ir.Graph
module Op = Ir.Op
module Table = Symshape.Table
module Cluster = Fusion.Cluster
module Executable = Runtime.Executable
module Memplan = Runtime.Memplan

type decision = {
  order : int array;
  groups : int array array;
  recomputed : int array;
  env : (string * int) list;
  peak_before : int;
  peak_after : int;
}

let sub_align = 64 (* packing inside a regrouped block *)
let small_buffer_bytes = 262_144 (* regroup only sub-256KB buffers *)
let cheap_flops = 8.0 (* max summed flops/element of a recomputable producer *)
let max_recompute = 8

(* --- schedule/lifetime context at one binding --------------------------- *)

type ctx = {
  n : int;
  clusters : Cluster.t array;
  outs : int list array; (* unique outputs per item *)
  ins_u : int list array; (* unique produced-value inputs per item *)
  producer : (int, int) Hashtbl.t; (* value -> producing item position *)
  consumers : (int, int list) Hashtbl.t; (* value -> consuming item positions *)
  is_out : (int, unit) Hashtbl.t;
  sizes : (int, int) Hashtbl.t; (* value -> raw bytes at the binding *)
  values : int list; (* produced intermediates, production order *)
}

exception Unsized

let build_ctx est bnd : ctx =
  let exe = Estimate.executable est in
  let clusters = Array.of_list (List.map Executable.cluster_of exe.Executable.items) in
  let n = Array.length clusters in
  let outs = Array.map (fun c -> List.sort_uniq Int.compare c.Cluster.outputs) clusters in
  let producer = Hashtbl.create 64 in
  Array.iteri (fun j os -> List.iter (fun v -> Hashtbl.replace producer v j) os) outs;
  let ins_u =
    Array.map
      (fun c ->
        List.sort_uniq Int.compare
          (List.filter (fun v -> Hashtbl.mem producer v) c.Cluster.inputs))
      clusters
  in
  let consumers = Hashtbl.create 64 in
  Array.iteri
    (fun j vs ->
      List.iter
        (fun v ->
          let cur = Option.value (Hashtbl.find_opt consumers v) ~default:[] in
          if not (List.mem j cur) then Hashtbl.replace consumers v (j :: cur))
        vs)
    ins_u;
  Hashtbl.iter
    (fun v cs -> Hashtbl.replace consumers v (List.sort Int.compare cs))
    (Hashtbl.copy consumers);
  let is_out = Hashtbl.create 8 in
  List.iter
    (fun o -> if Hashtbl.mem producer o then Hashtbl.replace is_out o ())
    (Graph.outputs exe.Executable.g);
  let sizes = Hashtbl.create 64 in
  let lookup = Estimate.lookup est bnd in
  let values =
    List.map
      (fun b ->
        (match Poly.eval b.Estimate.poly ~lookup with
        | Some raw -> Hashtbl.replace sizes b.Estimate.value raw
        | None -> raise Unsized);
        b.Estimate.value)
      (Estimate.buffers est)
  in
  { n; clusters; outs; ins_u; producer; consumers; is_out; sizes; values }

let pos_of_order order =
  let pos = Array.make (Array.length order) 0 in
  Array.iteri (fun k o -> pos.(o) <- k) order;
  pos

(* Final lifetime of [v] under scheduled positions, with [extra] lifetime
   extensions from accepted recomputations (assoc: value -> min last). *)
let lifetime ctx pos_of extra v =
  let first = pos_of.(Hashtbl.find ctx.producer v) in
  let natural =
    if Hashtbl.mem ctx.is_out v then max_int
    else
      match Hashtbl.find_opt ctx.consumers v with
      | None | Some [] -> first
      | Some cs -> List.fold_left (fun a j -> max a pos_of.(j)) first cs
  in
  let last =
    match List.assoc_opt v extra with
    | Some e when natural <> max_int -> max natural e
    | _ -> natural
  in
  (first, last)

(* An arena unit: one value per lifetime segment, or a regrouped block
   of values packed at offsets within it. *)
type unit_ = {
  u_values : (int * int * int) list; (* value, offset within block, size *)
  u_size : int;
  u_first : int;
  u_last : int;
}

(* Units of every value: one per lifetime, or one per recompute site for
   recomputed values; grouped values share a single coalesced block. *)
let units_of ctx pos_of ~recomputed ~extra ~groups =
  let grouped = Hashtbl.create 8 in
  Array.iter (fun g -> Array.iter (fun v -> Hashtbl.replace grouped v ()) g) groups;
  let singles =
    List.concat_map
      (fun v ->
        if Hashtbl.mem grouped v then []
        else
          let sz = Memplan.align Memplan.alignment (Hashtbl.find ctx.sizes v) in
          let unit_at (first, last) =
            { u_values = [ (v, 0, sz) ]; u_size = sz; u_first = first; u_last = last }
          in
          if List.mem v recomputed then
            (* just-in-time: materialized at production (the fused cluster
               writes it regardless), then only at each consumer site *)
            let first = pos_of.(Hashtbl.find ctx.producer v) in
            let cs =
              List.sort Int.compare
                (List.map (fun j -> pos_of.(j)) (Hashtbl.find ctx.consumers v))
            in
            List.map unit_at ((first, first) :: List.map (fun c -> (c, c)) cs)
          else [ unit_at (lifetime ctx pos_of extra v) ])
      ctx.values
  in
  let group_units =
    Array.to_list
      (Array.map
         (fun g ->
           let within = ref 0 in
           let members =
             Array.to_list
               (Array.map
                  (fun v ->
                    let sz = Memplan.align sub_align (Hashtbl.find ctx.sizes v) in
                    let off = !within in
                    within := !within + sz;
                    (v, off, sz))
                  g)
           in
           let first, last = lifetime ctx pos_of extra g.(0) in
           {
             u_values = members;
             u_size = Memplan.align Memplan.alignment !within;
             u_first = first;
             u_last = last;
           })
         groups)
  in
  singles @ group_units

(* The largest sum of live unit sizes over positions [0, n): one sweep
   over a difference array, each unit added at its first position and
   taken off after its last (an output's [max_int] ends at [n - 1]). *)
let eval_peak ctx pos_of ~recomputed ~extra ~groups =
  let delta = Array.make (ctx.n + 1) 0 in
  List.iter
    (fun u ->
      let last = min u.u_last (ctx.n - 1) in
      if u.u_first <= last then begin
        delta.(u.u_first) <- delta.(u.u_first) + u.u_size;
        delta.(last + 1) <- delta.(last + 1) - u.u_size
      end)
    (units_of ctx pos_of ~recomputed ~extra ~groups);
  let best = ref 0 and live = ref 0 in
  for p = 0 to ctx.n - 1 do
    live := !live + delta.(p);
    if !live > !best then best := !live
  done;
  !best

(* --- pass 1: greedy memory-minimizing list schedule ---------------------- *)

let greedy_order ctx =
  let n = ctx.n in
  let deps =
    Array.map
      (fun vs -> List.sort_uniq Int.compare (List.map (Hashtbl.find ctx.producer) vs))
      ctx.ins_u
  in
  let blocked = Array.map List.length deps in
  let succs = Array.make n [] in
  Array.iteri (fun j ds -> List.iter (fun i -> succs.(i) <- j :: succs.(i)) ds) deps;
  let remaining = Hashtbl.create 64 in
  List.iter
    (fun v ->
      Hashtbl.replace remaining v
        (match Hashtbl.find_opt ctx.consumers v with Some cs -> List.length cs | None -> 0))
    ctx.values;
  let size v = Memplan.align Memplan.alignment (Hashtbl.find ctx.sizes v) in
  let alloc j = List.fold_left (fun a v -> a + size v) 0 ctx.outs.(j) in
  let freed j =
    List.fold_left
      (fun a v ->
        match Hashtbl.find_opt remaining v with
        | Some 1 when not (Hashtbl.mem ctx.is_out v) -> a + size v
        | _ -> a)
      0 ctx.ins_u.(j)
    + List.fold_left
        (fun a v ->
          if Hashtbl.find_opt ctx.consumers v = None && not (Hashtbl.mem ctx.is_out v) then
            a + size v
          else a)
        0 ctx.outs.(j)
  in
  let order = Array.make n 0 in
  let scheduled = Array.make n false in
  let live = ref 0 in
  for step = 0 to n - 1 do
    let best = ref (-1) and best_la = ref max_int in
    for j = 0 to n - 1 do
      if (not scheduled.(j)) && blocked.(j) = 0 then begin
        let la = !live + alloc j - freed j in
        if la < !best_la then begin
          best := j;
          best_la := la
        end
      end
    done;
    let j = !best in
    order.(step) <- j;
    scheduled.(j) <- true;
    live := !best_la;
    List.iter
      (fun v ->
        match Hashtbl.find_opt remaining v with
        | Some c -> Hashtbl.replace remaining v (c - 1)
        | None -> ())
      ctx.ins_u.(j);
    List.iter (fun s -> blocked.(s) <- blocked.(s) - 1) succs.(j)
  done;
  order

(* --- pass 2: just-in-time recomputation of cheap producers --------------- *)

(* A value is recomputable when re-running the {e slice} of its
   producing cluster that feeds it (backward closure over member-level
   deps — not the whole cluster, which may carry reductions for its
   other outputs) is ~free: every slice member elementwise or
   shape-manipulating, summed per-element cost below [cheap_flops]. The
   canonical case is a broadcast attention mask fused into layer 1's
   softmax and kept live for every later layer. The slice's external
   inputs must stay live to the last recompute site; [extra] charges
   exactly that. Returns the produced external inputs, or [None] when
   the slice isn't cheap. *)
let recompute_inputs est ctx j v =
  let g = (Estimate.executable est).Executable.g in
  let c = ctx.clusters.(j) in
  let member = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace member m ()) c.Cluster.members;
  let needed = Hashtbl.create 8 in
  let rec visit mid =
    if not (Hashtbl.mem needed mid) then begin
      Hashtbl.replace needed mid ();
      Array.iter (fun a -> if Hashtbl.mem member a then visit a) (Graph.inst g mid).Graph.args
    end
  in
  visit v;
  let slice = List.filter (Hashtbl.mem needed) c.Cluster.members in
  let classes_ok =
    List.for_all
      (fun mid ->
        match Op.fusion_class (Graph.inst g mid).Graph.op with
        | Op.Elementwise | Op.Shape_manipulating -> true
        | _ -> false)
      slice
  in
  let flops =
    List.fold_left (fun a mid -> a +. Op.flops_per_element (Graph.inst g mid).Graph.op) 0.0 slice
  in
  if not (classes_ok && flops <= cheap_flops) then None
  else
    Some
      (List.sort_uniq Int.compare
         (List.concat_map
            (fun mid ->
              List.filter
                (fun a -> (not (Hashtbl.mem member a)) && Hashtbl.mem ctx.producer a)
                (Array.to_list (Graph.inst g mid).Graph.args))
            slice))

let recompute_pass est ctx pos_of =
  let candidates =
    List.concat
      (List.init ctx.n (fun j ->
           List.filter_map
             (fun v ->
               if Hashtbl.mem ctx.is_out v then None
               else
                 match Hashtbl.find_opt ctx.consumers v with
                 | Some (_ :: _ :: _ as cs) -> (
                     match recompute_inputs est ctx j v with
                     | Some inputs ->
                         let ps = List.sort Int.compare (List.map (fun c -> pos_of.(c)) cs) in
                         let span = List.nth ps (List.length ps - 1) - List.hd ps in
                         if span > 0 then
                           Some
                             ( Hashtbl.find ctx.sizes v * span,
                               v,
                               inputs,
                               List.nth ps (List.length ps - 1) )
                         else None
                     | None -> None)
                 | _ -> None)
             ctx.outs.(j)))
  in
  let candidates =
    List.sort
      (fun (sa, va, _, _) (sb, vb, _, _) ->
        if sa <> sb then Int.compare sb sa else Int.compare va vb)
      candidates
  in
  let recomputed = ref [] in
  let pinned = Hashtbl.create 8 in
  let extra = ref [] in
  let peak = ref (eval_peak ctx pos_of ~recomputed:[] ~extra:[] ~groups:[||]) in
  List.iter
    (fun (_, v, inputs, last_site) ->
      if List.length !recomputed < max_recompute && not (Hashtbl.mem pinned v) then begin
        (* can't extend the life of something itself recomputed *)
        if not (List.exists (fun u -> List.mem u !recomputed) inputs) then begin
          let extra' =
            List.fold_left
              (fun acc u ->
                let cur = Option.value (List.assoc_opt u acc) ~default:min_int in
                (u, max cur last_site) :: List.remove_assoc u acc)
              !extra inputs
          in
          let rec' = v :: !recomputed in
          let p = eval_peak ctx pos_of ~recomputed:rec' ~extra:extra' ~groups:[||] in
          if p < !peak then begin
            recomputed := rec';
            extra := extra';
            peak := p;
            List.iter (fun u -> Hashtbl.replace pinned u ()) inputs
          end
        end
      end)
    candidates;
  (List.sort Int.compare !recomputed, !extra)

(* --- pass 3: regroup small same-lifetime buffers ------------------------- *)

let regroup ctx pos_of ~recomputed ~extra =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      if (not (List.mem v recomputed)) && Hashtbl.find ctx.sizes v <= small_buffer_bytes
      then begin
        let key = lifetime ctx pos_of extra v in
        Hashtbl.replace tbl key (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
      end)
    ctx.values;
  let groups =
    Hashtbl.fold
      (fun _ vs acc ->
        if List.length vs >= 2 then Array.of_list (List.sort Int.compare vs) :: acc else acc)
      tbl []
  in
  (* deterministic order: by first member id *)
  Array.of_list (List.sort (fun a b -> Int.compare a.(0) b.(0)) groups)

(* --- decisions ----------------------------------------------------------- *)

let identity_order n = Array.init n (fun i -> i)

let identity ?(env = []) est bnd =
  let peak =
    match Estimate.live_peak_bytes est bnd with Some p -> p | None -> 0
  in
  {
    order = identity_order (Estimate.n_items est);
    groups = [||];
    recomputed = [||];
    env;
    peak_before = peak;
    peak_after = peak;
  }

(* Re-derive the recompute lifetime extensions a decision implies: each
   recomputed value keeps its producing slice's external inputs live to
   its last consumer site. Deterministic from (executable, decision). *)
let extras_of est ctx pos_of recomputed =
  Array.fold_left
    (fun acc v ->
      let j = Hashtbl.find ctx.producer v in
      let inputs =
        match recompute_inputs est ctx j v with Some us -> us | None -> ctx.ins_u.(j)
      in
      let last_site =
        List.fold_left (fun a c -> max a pos_of.(c)) 0 (Hashtbl.find ctx.consumers v)
      in
      List.fold_left
        (fun acc u ->
          let cur = Option.value (List.assoc_opt u acc) ~default:min_int in
          (u, max cur last_site) :: List.remove_assoc u acc)
        acc inputs)
    [] recomputed

let decide ?(env = []) est bnd =
  match build_ctx est bnd with
  | exception Unsized -> identity ~env est bnd
  | ctx when ctx.n = 0 -> identity ~env est bnd
  | ctx ->
      let id_order = identity_order ctx.n in
      let peak_before =
        eval_peak ctx (pos_of_order id_order) ~recomputed:[] ~extra:[] ~groups:[||]
      in
      let order =
        let cand = greedy_order ctx in
        let p = eval_peak ctx (pos_of_order cand) ~recomputed:[] ~extra:[] ~groups:[||] in
        if p < peak_before then cand else id_order
      in
      let pos_of = pos_of_order order in
      let recomputed, extra = recompute_pass est ctx pos_of in
      let groups = regroup ctx pos_of ~recomputed ~extra in
      let peak_after = eval_peak ctx pos_of ~recomputed ~extra ~groups in
      {
        order;
        groups;
        recomputed = Array.of_list recomputed;
        env;
        peak_before;
        peak_after = min peak_after peak_before;
      }

let reduced_peak est d bnd =
  match build_ctx est bnd with
  | exception Unsized -> None
  | ctx when ctx.n = 0 -> Some 0
  | ctx ->
      let pos_of = pos_of_order d.order in
      let extra = extras_of est ctx pos_of d.recomputed in
      Some
        (eval_peak ctx pos_of
           ~recomputed:(Array.to_list d.recomputed)
           ~extra ~groups:d.groups)

(* --- concrete planning over the transformed lifetimes -------------------- *)

let plan est d bnd : Memplan.t =
  let ctx = build_ctx est bnd in
  let pos_of = pos_of_order d.order in
  let extra = extras_of est ctx pos_of d.recomputed in
  let units =
    units_of ctx pos_of ~recomputed:(Array.to_list d.recomputed) ~extra ~groups:d.groups
  in
  (* stable creation order within a position keeps planning deterministic *)
  let units = List.stable_sort (fun a b -> Int.compare a.u_first b.u_first) units in
  let offsets, arena_bytes =
    Memplan.place (List.map (fun u -> (u.u_size, u.u_first, u.u_last)) units)
  in
  let assignments =
    List.concat
      (List.map2
         (fun u off ->
           List.map
             (fun (v, w, sz) ->
               {
                 Memplan.value = v;
                 offset = off + w;
                 size = sz;
                 first_pos = u.u_first;
                 last_pos = u.u_last;
               })
             u.u_values)
         units offsets)
  in
  let naive_bytes = List.fold_left (fun a (x : Memplan.assignment) -> a + x.Memplan.size) 0 assignments in
  {
    Memplan.assignments;
    arena_bytes;
    naive_bytes;
    resident_bytes = Option.value (Estimate.resident_bytes est bnd) ~default:0;
  }

let savings_pct d =
  if d.peak_before <= 0 then 0.0
  else 100.0 *. (1.0 -. (float_of_int d.peak_after /. float_of_int d.peak_before))

let moved d =
  let m = ref 0 in
  Array.iteri (fun k o -> if k <> o then incr m) d.order;
  !m

let to_string d =
  let env_str =
    if d.env = [] then ""
    else
      " @ "
      ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) d.env)
  in
  Printf.sprintf
    "peak %.2fMB -> %.2fMB (-%.1f%%): moved=%d groups=%d(%d bufs) recompute=%d%s"
    (float_of_int d.peak_before /. 1e6)
    (float_of_int d.peak_after /. 1e6)
    (savings_pct d) (moved d) (Array.length d.groups)
    (Array.fold_left (fun a g -> a + Array.length g) 0 d.groups)
    (Array.length d.recomputed) env_str
