(* Fusion explainability: given a plan, answer "why are instructions a
   and b in different kernels?" with the first planner rule that blocks
   the merge. Surfaced through `discc explain` and used in tests to pin
   down planner behaviour. *)

module Sym = Symshape.Sym
module Graph = Ir.Graph
module Op = Ir.Op

type verdict =
  | Fused (* already in the same cluster *)
  | Producer_not_fusable of string (* library/opaque op *)
  | Consumer_not_fusable of string
  | Reduce_in_producer (* kLoop rule: producer cluster carries a reduce *)
  | Domain_mismatch of string * string (* loop domains not provably numel-equal *)
  | Stitch_row_unbounded (* no upper bound to prove shared-memory fit *)
  | Stitch_row_too_large of int * int (* bytes needed vs budget *)
  | Not_adjacent (* no producer/consumer edge between the clusters *)
  | Would_create_cycle

let verdict_to_string = function
  | Fused -> "already fused into the same kernel"
  | Producer_not_fusable op -> Printf.sprintf "producer is not fusable (%s)" op
  | Consumer_not_fusable op -> Printf.sprintf "consumer is not fusable (%s)" op
  | Reduce_in_producer ->
      "producer cluster contains a reduce: only kStitch can merge across it"
  | Domain_mismatch (a, b) ->
      Printf.sprintf
        "loop domains %s and %s are not provably numel-equal under the shape constraints" a b
  | Stitch_row_unbounded ->
      "the reduced row has no upper bound, so the shared-memory fit cannot be proven \
       (add a range constraint to the dim)"
  | Stitch_row_too_large (need, budget) ->
      Printf.sprintf "the reduced row needs %d bytes of shared memory; budget is %d" need budget
  | Not_adjacent -> "the clusters are not producer/consumer adjacent"
  | Would_create_cycle -> "merging would create a cycle through a third kernel"

(* Explain the separation of the clusters containing [a] and [b] in a
   finished plan. This re-applies the planner's checks declaratively. *)
let explain ?(config = Planner.default_config) (g : Graph.t) (plan : Cluster.plan) ~(a : int)
    ~(b : int) : verdict =
  let tab = Graph.symtab g in
  let cluster_of id = Hashtbl.find_opt plan.Cluster.cluster_of id in
  match (cluster_of a, cluster_of b) with
  | Some ca, Some cb when ca = cb -> Fused
  | _ -> (
      let find_cluster cid =
        List.find (fun c -> c.Cluster.cid = cid) plan.Cluster.clusters
      in
      let ia = Graph.inst g a and ib = Graph.inst g b in
      let class_name i = Op.to_string i.Graph.op in
      let fusable i =
        match Op.fusion_class i.Graph.op with
        | Op.Elementwise | Op.Shape_manipulating | Op.Reduction -> true
        | Op.Library | Op.Opaque -> false
      in
      if not (fusable ia) then Producer_not_fusable (class_name ia)
      else if not (fusable ib) then Consumer_not_fusable (class_name ib)
      else
        match (cluster_of a, cluster_of b) with
        | Some ca_id, Some cb_id -> (
            let ca = find_cluster ca_id and cb = find_cluster cb_id in
            (* adjacency: some member of one reads some member of the other *)
            let feeds x y =
              List.exists
                (fun m ->
                  Array.exists
                    (fun a -> cluster_of a = Some x.Cluster.cid)
                    (Graph.inst g m).Graph.args)
                y.Cluster.members
            in
            let producer, consumer =
              if feeds ca cb then (ca, cb) else if feeds cb ca then (cb, ca) else (ca, ca)
            in
            if producer == consumer then Not_adjacent
            else
              let domains_eq =
                Planner.numel_eq config tab producer.Cluster.domain consumer.Cluster.domain
              in
              (* the shared-memory bytes each reduce row of the producer
                 needs, by the planner's own fit rule (None: unbounded) *)
              let rows =
                List.filter_map
                  (fun m ->
                    match (Graph.inst g m).Graph.op with
                    | Op.Reduce _ -> Some (Planner.reduce_row_upper_bound_bytes g m)
                    | _ -> None)
                  producer.Cluster.members
              in
              let budget = config.Planner.shared_mem_bytes in
              if rows <> [] then
                (* a stitch would be needed; find the blocking condition *)
                let fits = function Some n -> n <= budget | None -> false in
                let need = List.fold_left (fun acc r -> max acc (Option.value r ~default:0)) 0 rows in
                if not config.Planner.enable_stitch then Reduce_in_producer
                else if List.for_all fits rows then Would_create_cycle
                else if need = 0 then Stitch_row_unbounded
                else if need > budget then Stitch_row_too_large (need, budget)
                else Would_create_cycle
              else if not domains_eq then
                Domain_mismatch
                  (Sym.to_string producer.Cluster.domain, Sym.to_string consumer.Cluster.domain)
              else Would_create_cycle)
        | _ -> Not_adjacent)
