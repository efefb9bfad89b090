open Store_kit

type t = store
type scheme = S_exspan | S_basic | S_advanced | S_advanced_interclass

let all_schemes = [ S_exspan; S_basic; S_advanced; S_advanced_interclass ]

let scheme_name = function
  | S_exspan -> "ExSPAN"
  | S_basic -> "Basic"
  | S_advanced -> "Advanced"
  | S_advanced_interclass -> "Advanced+interclass"

let make scheme ~delp ~env ~nodes =
  let advanced interclass =
    let keys = Dpc_analysis.Equi_keys.compute delp in
    Store_advanced.(store (create ~delp ~env ~keys ~interclass ~nodes ()))
  in
  match scheme with
  | S_exspan -> Store_exspan.create ~delp ~env ~nodes
  | S_basic -> Store_basic.create ~delp ~env ~nodes
  | S_advanced -> advanced false
  | S_advanced_interclass -> advanced true

let restore scheme ~delp ~env blob =
  match scheme with
  | S_exspan -> Store_exspan.restore ~delp ~env blob
  | S_basic -> Store_basic.restore ~delp ~env blob
  | S_advanced | S_advanced_interclass ->
      Store_advanced.restore ~delp ~env ~keys:(Dpc_analysis.Equi_keys.compute delp) blob

let nodes (Store s) = Store_kit.nodes s.kit
let hook (Store s) = s.hook
let set_degraded_sink (Store s) f = Store_kit.set_degraded_sink s.kit f
let node_storage (Store s) node = Store_kit.node_storage s.kit node
let total_storage (Store s) = Store_kit.total_storage s.kit

let query (Store s) ~cost ~routing ?evid ?up output =
  Store_kit.query s.kit ~walk:s.walk ~cost ~routing ?evid ?up output

let set_query_cache (Store s) cache = Store_kit.set_query_cache s.kit cache
let query_cache (Store s) = Store_kit.query_cache s.kit

let attach_query_cache ?capacity t =
  let cluster = nodes t in
  let tick ~node name by = Dpc_util.Metrics.add (Dpc_engine.Node.metrics cluster.(node)) name by in
  let cache = Query_cache.create ?capacity ~tick () in
  set_query_cache t (Some cache);
  cache

let detach_query_cache t = set_query_cache t None
let dump (Store s) = s.dump ()
let checkpoint (Store s) = Store_kit.checkpoint s.kit
let checkpoint_node (Store s) node = Store_kit.checkpoint_node s.kit node
let digest_node (Store s) node = Store_kit.digest_node s.kit node
let restore_node (Store s) node blob = Store_kit.restore_node s.kit node blob
let set_dirty_tracking (Store s) on = Store_kit.set_track_dirty s.kit on
let checkpoint_delta (Store s) node = Store_kit.checkpoint_delta s.kit node
let apply_delta (Store s) node blob = Store_kit.apply_delta s.kit node blob

module For_testing = struct
  let restore = restore
end
