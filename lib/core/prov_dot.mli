(** Graphviz rendering of provenance trees, in the paper's Fig 3 style:
    oval rule-execution nodes, boxed tuple nodes, slow-changing tuples
    shaded. *)

val forest_to_dot : ?name:string -> Prov_tree.t list -> string
(** One digraph containing every tree; structurally shared tuples (same
    contents) are merged into a single node, which makes the sharing that
    the compression schemes exploit visible. *)
