import re
from pathlib import Path

from ends_splitter.groups import Truncation

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs_and_streams_the_sample_once(monkeypatch,
                                                          capsys):
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    stream = Truncation.right_action_stream
    calls = []

    def counted(self, elements):
        calls.append(len(elements))
        return stream(self, elements)

    monkeypatch.setattr(Truncation, "right_action_stream", counted)
    exec(compile(code, str(README), "exec"), {})
    assert calls == [17]
    printed = capsys.readouterr().out.splitlines()
    assert printed[1:] == ["['e']", "18 17", "[]"]
