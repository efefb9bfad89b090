type t =
  | Exspan of Store_exspan.t
  | Basic of Store_basic.t
  | Advanced of Store_advanced.t

type scheme = S_exspan | S_basic | S_advanced | S_advanced_interclass

let all_schemes = [ S_exspan; S_basic; S_advanced; S_advanced_interclass ]

let scheme_name = function
  | S_exspan -> "ExSPAN"
  | S_basic -> "Basic"
  | S_advanced -> "Advanced"
  | S_advanced_interclass -> "Advanced+interclass"

let make scheme ~delp ~env ~nodes =
  match scheme with
  | S_exspan -> Exspan (Store_exspan.create ~delp ~env ~nodes)
  | S_basic -> Basic (Store_basic.create ~delp ~env ~nodes)
  | S_advanced ->
      let keys = Dpc_analysis.Equi_keys.compute delp in
      Advanced (Store_advanced.create ~delp ~env ~keys ~nodes ())
  | S_advanced_interclass ->
      let keys = Dpc_analysis.Equi_keys.compute delp in
      Advanced (Store_advanced.create ~delp ~env ~keys ~interclass:true ~nodes ())

let nodes = function
  | Exspan s -> Store_exspan.nodes s
  | Basic s -> Store_basic.nodes s
  | Advanced s -> Store_advanced.nodes s

let name = function
  | Exspan _ -> "ExSPAN"
  | Basic _ -> "Basic"
  | Advanced s -> begin
      (* The hook name distinguishes the inter-class variant. *)
      match (Store_advanced.hook s).Dpc_engine.Prov_hook.name with
      | "advanced+interclass" -> "Advanced+interclass"
      | _ -> "Advanced"
    end

let hook = function
  | Exspan s -> Store_exspan.hook s
  | Basic s -> Store_basic.hook s
  | Advanced s -> Store_advanced.hook s

let set_degraded_sink t f =
  match t with
  | Exspan s -> Store_exspan.set_degraded_sink s f
  | Basic s -> Store_basic.set_degraded_sink s f
  | Advanced s -> Store_advanced.set_degraded_sink s f

let node_storage t node =
  match t with
  | Exspan s -> Store_exspan.node_storage s node
  | Basic s -> Store_basic.node_storage s node
  | Advanced s -> Store_advanced.node_storage s node

let total_storage = function
  | Exspan s -> Store_exspan.total_storage s
  | Basic s -> Store_basic.total_storage s
  | Advanced s -> Store_advanced.total_storage s

let query t ~cost ~routing ?evid ?up output =
  match t with
  | Exspan s -> Store_exspan.query s ~cost ~routing ?evid ?up output
  | Basic s -> Store_basic.query s ~cost ~routing ?evid ?up output
  | Advanced s -> Store_advanced.query s ~cost ~routing ?evid ?up output

let query_page t ~cost ~routing ?evid ?up ?cursor ~limit output =
  let r = query t ~cost ~routing ?evid ?up output in
  (r, Query_result.paginate ?cursor ~limit r.Query_result.trees)

let set_query_cache t cache =
  match t with
  | Exspan s -> Store_exspan.set_query_cache s cache
  | Basic s -> Store_basic.set_query_cache s cache
  | Advanced s -> Store_advanced.set_query_cache s cache

let query_cache = function
  | Exspan s -> Store_exspan.query_cache s
  | Basic s -> Store_basic.query_cache s
  | Advanced s -> Store_advanced.query_cache s

let attach_query_cache ?capacity t =
  let cluster = nodes t in
  let tick ~node name by = Dpc_util.Metrics.add (Dpc_engine.Node.metrics cluster.(node)) name by in
  let cache = Query_cache.create ?capacity ~tick () in
  set_query_cache t (Some cache);
  cache

let detach_query_cache t = set_query_cache t None

let dump = function
  | Exspan s -> Store_exspan.dump s
  | Basic s -> Store_basic.dump s
  | Advanced s -> Store_advanced.dump s

let checkpoint = function
  | Exspan s -> Store_exspan.checkpoint s
  | Basic s -> Store_basic.checkpoint s
  | Advanced s -> Store_advanced.checkpoint s

let checkpoint_node t node =
  match t with
  | Exspan s -> Store_exspan.checkpoint_node s node
  | Basic s -> Store_basic.checkpoint_node s node
  | Advanced s -> Store_advanced.checkpoint_node s node

let digest_node t node =
  match t with
  | Exspan s -> Store_exspan.digest_node s node
  | Basic s -> Store_basic.digest_node s node
  | Advanced s -> Store_advanced.digest_node s node

let restore_node t node blob =
  match t with
  | Exspan s -> Store_exspan.restore_node s node blob
  | Basic s -> Store_basic.restore_node s node blob
  | Advanced s -> Store_advanced.restore_node s node blob

let set_dirty_tracking t on =
  match t with
  | Exspan s -> Store_exspan.set_track_dirty s on
  | Basic s -> Store_basic.set_track_dirty s on
  | Advanced s -> Store_advanced.set_track_dirty s on

let checkpoint_delta t node =
  match t with
  | Exspan s -> Store_exspan.checkpoint_delta s node
  | Basic s -> Store_basic.checkpoint_delta s node
  | Advanced s -> Store_advanced.checkpoint_delta s node

let apply_delta t node blob =
  match t with
  | Exspan s -> Store_exspan.apply_delta s node blob
  | Basic s -> Store_basic.apply_delta s node blob
  | Advanced s -> Store_advanced.apply_delta s node blob

let restore scheme ~delp ~env blob =
  match scheme with
  | S_exspan -> Exspan (Store_exspan.restore ~delp ~env blob)
  | S_basic -> Basic (Store_basic.restore ~delp ~env blob)
  | S_advanced | S_advanced_interclass ->
      let keys = Dpc_analysis.Equi_keys.compute delp in
      Advanced (Store_advanced.restore ~delp ~env ~keys blob)
