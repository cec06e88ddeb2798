import ast
import inspect
from pathlib import Path

from fluidqoe import errors

PACKAGE = Path(errors.__file__).parent


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_every_leaf_error_class_is_raised_or_warned():
    # a class nothing raises or warns documents a failure that cannot happen
    classes = [c for c in vars(errors).values()
               if inspect.isclass(c) and c.__module__ == errors.__name__]
    leaves = {c.__name__ for c in classes
              if not any(o is not c and issubclass(o, c) for o in classes)}
    used = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                used.add(_name(exc.func if isinstance(exc, ast.Call) else exc))
            elif isinstance(node, ast.Call) and _name(node.func) == "warn":
                categories = node.args[1:2] + [k.value for k in node.keywords
                                               if k.arg == "category"]
                used.update(map(_name, categories))
    assert leaves and sorted(leaves - used) == []
