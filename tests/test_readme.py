import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    """The Python block under the README's "Library quick tour" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_readme_quick_tour_runs_as_its_comments_say():
    # each top-level statement runs in order; an expression statement keeps its value
    # under its source line, so the comments' claims are checked against what ran
    source, namespace, values = quick_tour(), {}, {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for node in ast.parse(source).body:
            if isinstance(node, ast.Expr):
                line = ast.get_source_segment(source, node)
                values[line] = eval(compile(ast.Expression(node.value), "README", "eval"),
                                    namespace)
            else:
                exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    enumerator = values['hamming_enumerator(c).text(["x", "y"])']
    assert values["c.rank"] == 6 and namespace["d"].rank == 6
    assert enumerator == "4 x y + x^2 + 59 y^2" and f"# {enumerator!r}" in source
    assert values["hamming_transform(hamming_enumerator(c), c.size, 2) == hamming_enumerator(d)"] \
        is True
    assert values["macwilliams_complete_check(c)"] is True
    assert out.getvalue() == "[[16,8,4]]_17 True\n" and "# [[16,8,4]]_17 True" in source
    assert values["cyclic_code_from_generators(17, 8, [4, 5, 3, 1], [9, 14, 14, 8, 10, 12, 1])"
                  " == code"] is True
