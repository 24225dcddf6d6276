(** The paper's Table 1, live: build the NodeList/GraphNode example, let
    findGraphNode get optimized, then dump the Class List — InitMap /
    ValidMap / SpeculateMap bitmaps, per-slot profiled classes, and the
    FunctionLists naming the speculating code.

    dune exec examples/classlist_dump.exe *)

let () =
  print_endline Tce_metrics.Table1.title;
  print_string (Tce_metrics.Table1.render ())
